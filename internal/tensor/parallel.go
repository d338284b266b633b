package tensor

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// parallelBackend executes the shared row-range kernels concurrently on a
// workerPool. Work is split into contiguous row panels pulled dynamically
// from an atomic cursor; because every output row is produced by exactly
// one panel with the same inner-loop order as the serial kernels, results
// are bit-identical to Serial for any worker count.
type parallelBackend struct {
	pool *workerPool
}

// chunksPerWorker over-decomposes parallel loops so the dynamic cursor
// can load-balance panels of uneven cost (e.g. spike-sparse GEMM rows).
const chunksPerWorker = 4

// minParallelWork is the smallest number of inner-loop operations worth
// fanning out; below it the hand-off overhead beats the speedup and the
// operation runs inline.
const minParallelWork = 1 << 13

// NewParallel constructs a multi-core backend with the given worker
// count; workers <= 0 selects GOMAXPROCS. The backend owns a shared pool
// of compute goroutines that lives as long as the backend is reachable;
// when the backend is garbage-collected a cleanup closes the pool and
// its goroutines exit, so transient backends (tests, reconfiguration)
// do not pin goroutines forever.
func NewParallel(workers int) Backend {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &parallelBackend{pool: newWorkerPool(workers)}
	runtime.AddCleanup(b, func(jobs chan *poolJob) { close(jobs) }, b.pool.jobs)
	return b
}

// Name implements Backend.
func (p *parallelBackend) Name() string { return "parallel" }

// Workers implements Backend.
func (p *parallelBackend) Workers() int { return p.pool.workers }

// split partitions [0, n) into roughly equal contiguous chunks and runs
// fn over them on the pool. serialCost gates tiny jobs onto the caller.
func (p *parallelBackend) split(n int, serialCost int, fn func(lo, hi int)) {
	if serialCost < minParallelWork {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	p.runChunks(n, fn)
}

// runChunks is the shared chunk partitioner behind split and For.
func (p *parallelBackend) runChunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := p.pool.workers * chunksPerWorker
	if chunks > n {
		chunks = n
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size
	p.pool.Run(chunks, func(c int) {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
	// The GC cleanup closing the pool must not fire mid-Run.
	runtime.KeepAlive(p)
}

// MatMul implements Backend.
func (p *parallelBackend) MatMul(dst, a, b *Tensor) {
	m, k, n := checkMatMul(dst, a, b)
	p.split(m, m*k*n, func(r0, r1 int) { matMulRows(dst, a, b, k, n, r0, r1) })
}

// MatMulTransA implements Backend.
func (p *parallelBackend) MatMulTransA(dst, a, b *Tensor) {
	m, k, n := checkMatMulTransA(dst, a, b)
	p.split(m, m*k*n, func(r0, r1 int) { matMulTransARows(dst, a, b, m, k, n, r0, r1) })
}

// MatMulTransB implements Backend.
func (p *parallelBackend) MatMulTransB(dst, a, b *Tensor) {
	m, k, n := checkMatMulTransB(dst, a, b)
	p.split(m, m*k*n, func(r0, r1 int) { matMulTransBRows(dst, a, b, k, n, r0, r1) })
}

// Col2Im implements Backend. Parallelism is across batch items: patches
// of one item overlap (their scatter order must stay serial) but items
// write disjoint output regions.
func (p *parallelBackend) Col2Im(dst, cols *Tensor, cs ConvShape) {
	n := checkCol2Im(dst, cols, cs)
	p.split(n, cols.Len(), func(b0, b1 int) { col2ImItems(dst, cols, cs, b0, b1) })
}

// AddInPlace implements Backend. Chunks write disjoint ranges, so the
// parallel result is trivially bit-identical.
func (p *parallelBackend) AddInPlace(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", dst.Shape, src.Shape))
	}
	n := len(dst.Data)
	if n < minParallelWork {
		addRange(dst.Data, src.Data, 0, n)
		return
	}
	p.For(n, func(lo, hi int) { addRange(dst.Data, src.Data, lo, hi) })
}

// Scale implements Backend.
func (p *parallelBackend) Scale(t *Tensor, s float32) {
	n := len(t.Data)
	if n < minParallelWork {
		scaleRange(t.Data, s, 0, n)
		return
	}
	p.For(n, func(lo, hi int) { scaleRange(t.Data, s, lo, hi) })
}

// For implements Backend. No small-n gate: the per-iteration cost is the
// caller's and may be arbitrarily large even for tiny n (e.g. one chunk
// per output column of a systolic pass), and pool hand-off is
// non-blocking and cheap relative to any loop worth parallelizing.
func (p *parallelBackend) For(n int, fn func(lo, hi int)) {
	p.runChunks(n, fn)
}

// Map implements Backend. Items are pulled from a shared cursor by up to
// Workers() lanes; each lane runs on one goroutine, so slot safely
// indexes private per-lane resources.
func (p *parallelBackend) Map(n int, fn func(slot, i int)) {
	if n <= 0 {
		return
	}
	slots := p.pool.workers
	if slots > n {
		slots = n
	}
	if slots <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	p.pool.Run(slots, func(slot int) {
		for {
			i := next.Add(1) - 1
			if i >= int64(n) {
				return
			}
			fn(slot, int(i))
		}
	})
	runtime.KeepAlive(p)
}
