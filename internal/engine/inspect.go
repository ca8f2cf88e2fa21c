package engine

import (
	"fmt"
	"io"
	"strings"

	"decaf/internal/repgraph"
	"decaf/internal/wire"
)

// DescribeCheckpoint renders a human-readable summary of a persisted
// checkpoint without loading it into a site (the decaf-inspect tool).
func DescribeCheckpoint(r io.Reader) (string, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return "", fmt.Errorf("engine: read checkpoint: %w", err)
	}
	cp, err := wire.DecodeCheckpoint(data)
	if err != nil {
		return "", fmt.Errorf("engine: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint of site %s (format v%d)\n", cp.Site, wire.CheckpointVersion)
	fmt.Fprintf(&b, "clock %s, next object seq %d, %d top-level objects\n",
		cp.Clock, cp.NextSeq, len(cp.Objects))
	if cp.Seq != 0 {
		fmt.Fprintf(&b, "wal marker seq %d\n", cp.Seq)
	}
	for _, f := range cp.Floors {
		fmt.Fprintf(&b, "sync floor: origin %s up to time %d\n", f.Site, f.Time)
	}
	for _, oc := range cp.Objects {
		fmt.Fprintf(&b, "\n%s %q (%s)\n", oc.ID, oc.Desc, oc.Kind)
		if oc.Value != nil || !oc.ValueVT.IsZero() {
			fmt.Fprintf(&b, "  value %v (committed at %s)\n", oc.Value, oc.ValueVT)
		}
		if len(oc.Graph.Nodes) > 0 {
			g := repgraph.FromWire(oc.Graph)
			fmt.Fprintf(&b, "  replicas %v, primary at ", g.Sites())
			if ps, ok := g.PrimarySite(); ok {
				fmt.Fprintf(&b, "site %s", ps)
			} else {
				b.WriteString("(none)")
			}
			fmt.Fprintf(&b, " (graph changed at %s)\n", oc.GraphVT)
		}
		describeChildren(&b, oc.Children, "  ")
	}
	return b.String(), nil
}

// describeChildren renders a state image one slot per line, removed
// slots marked with their removals.
func describeChildren(b *strings.Builder, img []wire.ChildImage, indent string) {
	for _, ci := range img {
		fmt.Fprintf(b, "%s%s %s", indent, ci.Slot, ci.Kind)
		if ci.Value != nil {
			fmt.Fprintf(b, " = %v", ci.Value)
		}
		fmt.Fprintf(b, " (embedded at %s", ci.InsertVT)
		if len(ci.Removals) > 0 {
			fmt.Fprintf(b, ", removed at %v", ci.Removals)
		}
		b.WriteString(")\n")
		describeChildren(b, ci.Children, indent+"  ")
	}
}
