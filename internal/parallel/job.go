package parallel

import (
	"runtime"
	"sync"
)

// grapeJob is one host's force evaluation, run on a worker goroutine while
// the host sleeps through its modelled GRAPE time: the host and its
// attached GRAPE work at once, as on the machine, and the co-simulation
// uses every core without changing a bit of what it computes.
//
// A host makes one job and reuses it every round. The protocol is kick,
// sleep, collect: kick hands the job to a worker, the host then makes its
// SleepAs calls, and wait blocks until the worker is done, just before the
// host first reads the result. Between kick and wait the host must do
// nothing but sleep: the job reads the host's backend and staged
// i-particles and writes its result buffers, so the host touches none of
// them, and no other host can, since each owns its own.
type grapeJob struct {
	jobs  chan<- *grapeJob
	run   func()
	done  chan struct{}
	fault interface{} // what run panicked with, re-raised on the host by wait
}

// newJob makes a host's reusable job; run reads the round's operands from
// the variables it captures.
func (w *world) newJob(run func()) *grapeJob {
	return &grapeJob{jobs: w.jobs, run: run, done: make(chan struct{}, 1)}
}

// kick hands the job to a worker. The queue holds one job per host, so it
// never blocks.
func (j *grapeJob) kick() { j.jobs <- j }

// wait blocks until the worker has run the job. A panic in the job
// surfaces here, in the host's process, as it would have inline.
func (j *grapeJob) wait() {
	<-j.done
	if j.fault != nil {
		panic(j.fault)
	}
}

// do runs the job on a worker and signals the host.
func (j *grapeJob) do() {
	defer func() {
		j.fault = recover()
		j.done <- struct{}{}
	}()
	j.run()
}

// startWorkers starts GOMAXPROCS workers draining jobs. The returned stop
// closes jobs and returns once every worker has exited.
func startWorkers(jobs chan *grapeJob) (stop func()) {
	var wg sync.WaitGroup
	n := runtime.GOMAXPROCS(0)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go work(jobs, &wg)
	}
	return func() {
		close(jobs)
		wg.Wait()
	}
}

// work is one worker: it runs jobs until the queue is closed.
func work(jobs <-chan *grapeJob, wg *sync.WaitGroup) {
	defer wg.Done()
	for j := range jobs {
		j.do()
	}
}
