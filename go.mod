module grape6

// The language level stays 1.22: benchmark/go.mod says go 1.22 and binds to
// this module by replace, so raising this line makes `go run -C benchmark .`
// fail with "updates to go.mod needed". internal/des needs the go 1.23
// standard library (iter.Pull); the toolchain line below is what provides it,
// and des.go carries a go1.23 build constraint to say so.
go 1.22

toolchain go1.24.0
