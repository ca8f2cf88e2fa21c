module decaf/benchmark

go 1.22

require decaf v0.0.0

replace decaf => ../
