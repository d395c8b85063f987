// Fixture for hotblock: a channel send two calls below a noalloc
// kernel, a lock directly in a hotpath root, the go-statement exemption
// (a spawned function's blocking does not stall the spawner) and the
// go-literal case it does not cover.
package hotblock

import "sync"

//grape:noalloc
func kernel(c chan int) { relay1(c) }

func relay1(c chan int) { relay2(c) }

func relay2(c chan int) {
	c <- 1 // want "channel send in hotblock.relay2, reachable from //grape:noalloc kernel hotblock.kernel via hotblock.kernel -> hotblock.relay1 (hb.go:10) -> hotblock.relay2 (hb.go:12)"
}

var mu sync.Mutex

//grape:hotpath
func dispatch() {
	mu.Lock() // want "sync.Mutex.Lock on the hot path in hotblock.dispatch (//grape:hotpath root)"
	mu.Unlock()
}

// A go-statement edge is not traversed: pump's send runs on the spawned
// goroutine and does not stall dispatchSpawn. No findings here.
//
//grape:hotpath
func dispatchSpawn(c chan int) {
	go pump(c)
}

func pump(c chan int) {
	c <- 2
}

// A literal's body is its encloser's, a `go func(){...}()` literal's
// too: its send is dispatchLit's own.
//
//grape:hotpath
func dispatchLit(c chan int) {
	go func() {
		c <- 3 // want "channel send on the hot path in hotblock.dispatchLit (//grape:hotpath root)"
	}()
}
