// The benchmark is a module of its own so that adding or changing it never
// touches the repository's build file; the replace keeps it compiling
// against the tree it sits in.
module grape6/benchmark

go 1.22

require grape6 v0.0.0

replace grape6 => ../
