package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// workerPool is a shared pool of compute goroutines used by the Parallel
// backend. One pool serves every operation of its backend for the process
// lifetime, so hot loops pay no goroutine-spawn cost per call.
//
// Scheduling model: Run splits a job into `chunks` independent pieces
// identified by index. Idle workers and the calling goroutine race on an
// atomic cursor, so chunks are load-balanced dynamically. Hand-off to
// workers is non-blocking — if every worker is busy (e.g. a nested
// parallel call from inside a chunk), the caller simply executes all
// remaining chunks inline. That property makes nested Run calls
// deadlock-free by construction.
type workerPool struct {
	workers int // total lanes including the caller
	jobs    chan *poolJob
}

// poolJob is one Run invocation: a chunk function plus the shared cursor
// and completion group that workers drain.
type poolJob struct {
	fn   func(chunk int)
	next atomic.Int64
	n    int64
	wg   sync.WaitGroup
}

// newWorkerPool starts a pool with the given total parallelism. The pool
// spawns workers-1 background goroutines; the goroutine calling Run is
// always the remaining lane.
func newWorkerPool(workers int) *workerPool {
	if workers < 1 {
		workers = 1
	}
	p := &workerPool{workers: workers, jobs: make(chan *poolJob)}
	for w := 0; w < workers-1; w++ {
		go p.serve()
	}
	return p
}

func (p *workerPool) serve() {
	for j := range p.jobs {
		j.drain()
	}
}

// drain executes chunks from the job until the cursor is exhausted.
func (j *poolJob) drain() {
	for {
		c := j.next.Add(1) - 1
		if c >= j.n {
			return
		}
		j.fn(int(c))
		j.wg.Done()
	}
}

// Run executes fn(chunk) for every chunk in [0, chunks), returning when
// all chunks have completed. Chunks run concurrently on idle pool workers
// plus the calling goroutine; each chunk executes on exactly one
// goroutine. Panics inside fn propagate on the goroutine that ran the
// chunk (they are programming errors in this package, as with the serial
// loops).
func (p *workerPool) Run(chunks int, fn func(chunk int)) {
	if chunks <= 0 {
		return
	}
	if chunks == 1 || p.workers == 1 {
		for c := 0; c < chunks; c++ {
			fn(c)
		}
		return
	}
	j := &poolJob{fn: fn, n: int64(chunks)}
	j.wg.Add(chunks)
	// Wake at most workers-1 helpers without ever blocking: a full
	// channel means the pool is busy and the caller keeps the work.
	wake := p.workers - 1
	if wake > chunks-1 {
		wake = chunks - 1
	}
	for i := 0; i < wake; i++ {
		select {
		case p.jobs <- j:
		default:
			i = wake // no idle worker; stop offering
		}
	}
	j.drain()
	j.wg.Wait()
}

// scratchPools recycle float32 buffers across hot-path calls (GEMM
// outputs, gradient staging, per-timestep inference activations), one
// pool per power-of-two size class: class c holds buffers of capacity at
// least 1<<c.
var scratchPools [bits.UintSize]sync.Pool

// GetScratch returns a tensor of the given shape backed by a recycled
// buffer. Contents are UNSPECIFIED: every element must be written before
// it is read (all backend Into-style operations satisfy this). Pass the
// tensor to ReleaseScratch when it is dead to enable reuse.
//
// Buffers are size-classed: a request for n elements draws from class
// ceil(log2 n) and allocates capacity 1<<ceil(log2 n) when that class is
// empty, so a small request never takes a large buffer and one size does
// not evict another's.
func GetScratch(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	c := 0
	if n > 1 {
		c = bits.Len(uint(n - 1))
	}
	var buf []float32
	if bp, ok := scratchPools[c].Get().(*[]float32); ok {
		buf = *bp
	} else {
		buf = make([]float32, 1<<c)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: buf[:n]}
}

// ReleaseScratch returns a tensor's buffer to the pool, filed under
// class floor(log2 cap) so it only serves requests it can hold. The
// tensor must not be used afterwards, and no other live tensor may share
// its buffer. Releasing a non-scratch tensor is also safe: its buffer
// simply joins the pool.
func ReleaseScratch(t *Tensor) {
	if t == nil || cap(t.Data) == 0 {
		return
	}
	b := t.Data[:0]
	scratchPools[bits.Len(uint(cap(b)))-1].Put(&b)
	t.Data = nil
}
