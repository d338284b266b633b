package tensor

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Backend is a pluggable compute engine for the tensor operations on the
// framework's hot paths: GEMM (plain and transposed variants), the col2im
// scatter of a convolution's input gradient, elementwise arithmetic, and
// generic parallel iteration. A convolution's input lowering is not a
// Backend operation: Im2Patches builds its sparse rows over For.
// Implementations MUST be bit-identical to the Serial reference for every
// operation — callers are free to mix backends and results may never
// depend on the engine or its worker count.
//
// All destination-style operations ("dst" first) fully overwrite dst, so
// dst may come from GetScratch. Backends are safe for concurrent use by
// multiple goroutines.
//
// The Serial and Parallel engines here are the seam where future SIMD,
// cgo or GPU backends plug in (see ROADMAP).
type Backend interface {
	// Name identifies the backend ("serial", "parallel").
	Name() string
	// Workers returns the maximum concurrency of the engine (1 for serial).
	Workers() int

	// MatMul computes dst = a·b for a [m,k], b [k,n], dst [m,n].
	MatMul(dst, a, b *Tensor)
	// MatMulTransA computes dst = aᵀ·b for a [k,m], b [k,n], dst [m,n].
	MatMulTransA(dst, a, b *Tensor)
	// MatMulTransB computes dst = a·bᵀ for a [m,k], b [n,k], dst [m,n].
	MatMulTransB(dst, a, b *Tensor)

	// Col2Im scatters cols [N*OutH*OutW, K] into dst [N, InC, InH, InW],
	// the adjoint of the im2col lowering. dst is overwritten.
	Col2Im(dst, cols *Tensor, cs ConvShape)

	// AddInPlace computes dst += src elementwise; shapes must match.
	AddInPlace(dst, src *Tensor)
	// Scale multiplies every element of t by s.
	Scale(t *Tensor, s float32)

	// For runs fn over a partition of [0, n): each call receives a
	// half-open range [lo, hi); ranges are disjoint and cover [0, n).
	// fn may run concurrently on different ranges, so iterations must be
	// independent (disjoint writes).
	For(n int, fn func(lo, hi int))
	// Map runs fn(slot, i) once for every i in [0, n). Calls sharing a
	// slot value are executed sequentially on one goroutine, and slots
	// are dense in [0, Workers()), so slot can index private per-lane
	// resources (model replicas, scratch arenas).
	Map(n int, fn func(slot, i int))
}

// --- shape validation (shared by all backends) ---

func checkMatMul(dst, a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k = a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims mismatch %d vs %d", k, k2))
	}
	checkDst(dst, m, n)
	return m, k, n
}

func checkMatMulTransA(dst, a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransA requires rank-2 tensors")
	}
	k, m = a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims mismatch %d vs %d", k, k2))
	}
	checkDst(dst, m, n)
	return m, k, n
}

func checkMatMulTransB(dst, a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransB requires rank-2 tensors")
	}
	m, k = a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims mismatch %d vs %d", k, k2))
	}
	checkDst(dst, m, n)
	return m, k, n
}

func checkDst(dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: GEMM dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
}

func checkCol2Im(dst, cols *Tensor, cs ConvShape) int {
	if dst.Rank() != 4 || dst.Shape[1] != cs.InC || dst.Shape[2] != cs.InH || dst.Shape[3] != cs.InW {
		panic(fmt.Sprintf("tensor: Col2Im dst shape %v does not match conv %+v", dst.Shape, cs))
	}
	n := dst.Shape[0]
	if cols.Rank() != 2 || cols.Shape[0] != n*cs.PatchesPerItem || cols.Shape[1] != cs.K {
		panic(fmt.Sprintf("tensor: Col2Im cols shape %v does not match n=%d conv %+v", cols.Shape, n, cs))
	}
	return n
}

// --- serial reference backend ---

// serialBackend runs every operation as a plain single-threaded loop.
// It is the semantic reference: Parallel must match it bit for bit.
type serialBackend struct{}

var serialInstance Backend = serialBackend{}

// Serial returns the single-threaded reference backend.
func Serial() Backend { return serialInstance }

// Name implements Backend.
func (serialBackend) Name() string { return "serial" }

// Workers implements Backend.
func (serialBackend) Workers() int { return 1 }

// MatMul implements Backend.
func (serialBackend) MatMul(dst, a, b *Tensor) {
	_, k, n := checkMatMul(dst, a, b)
	matMulRows(dst, a, b, k, n, 0, dst.Shape[0])
}

// MatMulTransA implements Backend.
func (serialBackend) MatMulTransA(dst, a, b *Tensor) {
	m, k, n := checkMatMulTransA(dst, a, b)
	matMulTransARows(dst, a, b, m, k, n, 0, m)
}

// MatMulTransB implements Backend.
func (serialBackend) MatMulTransB(dst, a, b *Tensor) {
	_, k, n := checkMatMulTransB(dst, a, b)
	matMulTransBRows(dst, a, b, k, n, 0, dst.Shape[0])
}

// Col2Im implements Backend.
func (serialBackend) Col2Im(dst, cols *Tensor, cs ConvShape) {
	n := checkCol2Im(dst, cols, cs)
	col2ImItems(dst, cols, cs, 0, n)
}

// AddInPlace implements Backend.
func (serialBackend) AddInPlace(dst, src *Tensor) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", dst.Shape, src.Shape))
	}
	addRange(dst.Data, src.Data, 0, len(dst.Data))
}

// Scale implements Backend.
func (serialBackend) Scale(t *Tensor, s float32) {
	scaleRange(t.Data, s, 0, len(t.Data))
}

// For implements Backend: one call covering the whole range.
func (serialBackend) For(n int, fn func(lo, hi int)) {
	if n > 0 {
		fn(0, n)
	}
}

// Map implements Backend: sequential, slot 0.
func (serialBackend) Map(n int, fn func(slot, i int)) {
	for i := 0; i < n; i++ {
		fn(0, i)
	}
}

// --- default backend selection ---

var (
	defaultMu      sync.RWMutex
	defaultBackend Backend
)

// Default returns the process-default backend. On first use it is chosen
// from the FALVOLT_BACKEND environment variable ("serial", "parallel" or
// "parallel:N"); unset or "auto" selects Parallel when GOMAXPROCS > 1 and
// Serial otherwise. FALVOLT_WORKERS overrides the parallel worker count.
func Default() Backend {
	defaultMu.RLock()
	b := defaultBackend
	defaultMu.RUnlock()
	if b != nil {
		return b
	}
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultBackend == nil {
		b, err := backendByName(os.Getenv("FALVOLT_BACKEND"))
		if err != nil {
			// Do not re-consult the (invalid) environment: fall back to
			// the pure auto choice so Default never yields nil.
			fmt.Fprintf(os.Stderr, "falvolt: %v (falling back to auto)\n", err)
			b = autoBackend(envWorkers())
		}
		defaultBackend = b
	}
	return defaultBackend
}

// SetDefault installs b as the process-default backend.
func SetDefault(b Backend) {
	if b == nil {
		panic("tensor: SetDefault(nil)")
	}
	defaultMu.Lock()
	defaultBackend = b
	defaultMu.Unlock()
}

// SetDefaultByName selects the process-default backend by name. Accepted
// spellings: "" or "auto" (parallel iff GOMAXPROCS > 1), "serial",
// "parallel", "parallel:N" (N workers). It is the common handler behind
// the cmd/* -backend flags and the FALVOLT_BACKEND environment variable.
func SetDefaultByName(name string) error {
	b, err := backendByName(name)
	if err != nil {
		return err
	}
	SetDefault(b)
	return nil
}

func backendByName(name string) (Backend, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		// An unset flag defers to the environment; an explicit "auto"
		// overrides it.
		name = strings.ToLower(strings.TrimSpace(os.Getenv("FALVOLT_BACKEND")))
	}
	workers := 0
	if s, ok := strings.CutPrefix(name, "parallel:"); ok {
		w, err := strconv.Atoi(s)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tensor: bad worker count %q in backend name", s)
		}
		name, workers = "parallel", w
	}
	if workers == 0 {
		workers = envWorkers()
	}
	switch name {
	case "", "auto":
		return autoBackend(workers), nil
	case "serial":
		return Serial(), nil
	case "parallel":
		return NewParallel(workers), nil
	default:
		return nil, fmt.Errorf("tensor: unknown backend %q (want serial, parallel or auto)", name)
	}
}

// autoBackend picks Parallel when more than one core is available (or
// explicitly requested), Serial otherwise.
func autoBackend(workers int) Backend {
	if workers > 1 || (workers == 0 && runtime.GOMAXPROCS(0) > 1) {
		return NewParallel(workers)
	}
	return Serial()
}

// envWorkers parses FALVOLT_WORKERS (0 when unset or invalid).
func envWorkers() int {
	if s := os.Getenv("FALVOLT_WORKERS"); s != "" {
		if w, err := strconv.Atoi(s); err == nil && w >= 1 {
			return w
		}
	}
	return 0
}

// BackendFlagDoc is the shared help text for cmd/* -backend flags.
const BackendFlagDoc = "compute backend: auto | serial | parallel | parallel:N (also FALVOLT_BACKEND env)"
