package engine

import (
	"bytes"
	"strings"
	"testing"

	"decaf/internal/transport"
	"decaf/internal/wire"
)

func TestDescribeCheckpoint(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	refs := h.joined(KindInt, "balance", int64(0), 1, 2)
	if res := h.setInt(1, refs[1], 42); !res.Committed {
		t.Fatal("write failed")
	}
	lst, _ := h.site(1).CreateObject(KindList, "log", nil)
	var added Result
	for _, v := range []string{"entry", "dropped"} {
		if added = h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
			_, err := tx.ListAppend(lst, wire.ChildDecl{Kind: KindString, Value: v})
			return err
		}}).Wait(); !added.Committed {
			t.Fatal("append failed")
		}
	}
	remove := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error { return tx.ListRemove(lst, 1) }}).Wait()
	if !remove.Committed {
		t.Fatal("remove failed")
	}

	var buf bytes.Buffer
	if err := h.site(1).Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := DescribeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"checkpoint of site s1", "balance", "42", "replicas [s1 s2]", "log", "entry",
		"= dropped (embedded at " + added.VT.String() + ", removed at [" + remove.VT.String() + "])"} {
		if !strings.Contains(out, want) {
			t.Errorf("description missing %q:\n%s", want, out)
		}
	}
}

func TestDescribeCheckpointRejectsGarbage(t *testing.T) {
	if _, err := DescribeCheckpoint(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}
