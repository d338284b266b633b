package snn

import (
	"fmt"
	"math"
	"math/rand"

	"falvolt/internal/tensor"
)

// BatchNorm2D normalizes each channel of a [N, C, H, W] tensor over the
// batch and spatial dimensions, with learnable scale γ and shift β, and
// running statistics for inference. In SNN training the statistics are
// computed per timestep (each Forward call is one timestep's batch).
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64

	gamma, beta *Param

	runMean, runVar []float64

	// logStats switches a training replica into stat-log mode: training
	// forward records each timestep's batch (mean, variance) per channel
	// into meanLog/varLog instead of EMA-updating the shared
	// runMean/runVar in place. The trainer drains the log per micro-batch
	// and the primary replays it in micro-batch index order (see
	// ReplayStats), reproducing the order-dependent EMA bit-exactly
	// regardless of how many replicas ran concurrently.
	logStats        bool
	meanLog, varLog [][]float64

	// Per-timestep caches.
	xhat  cacheStack
	stds  [][]float64
	means [][]float64
}

// NewBatchNorm2D constructs batch normalization over c channels.
func NewBatchNorm2D(c int) *BatchNorm2D {
	g := tensor.New(c)
	g.Fill(1)
	bn := &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1,
		gamma:   NewParam("bn.gamma", g),
		beta:    NewParam("bn.beta", tensor.New(c)),
		runMean: make([]float64, c),
		runVar:  make([]float64, c),
	}
	for i := range bn.runVar {
		bn.runVar[i] = 1
	}
	return bn
}

// Forward implements Layer.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Shape[1] != bn.C {
		panic(fmt.Sprintf("snn: BatchNorm2D input %v, want [N %d H W]", x.Shape, bn.C))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	plane := h * w
	count := n * plane
	out := newActivation(train, x.Shape...)

	if !train {
		for ch := 0; ch < c; ch++ {
			inv := 1 / math.Sqrt(bn.runVar[ch]+bn.Eps)
			g := float64(bn.gamma.Value.Data[ch])
			b := float64(bn.beta.Value.Data[ch])
			mean := bn.runMean[ch]
			for bi := 0; bi < n; bi++ {
				base := (bi*c + ch) * plane
				for i := 0; i < plane; i++ {
					out.Data[base+i] = float32((float64(x.Data[base+i])-mean)*inv*g + b)
				}
			}
		}
		return out
	}

	xhat := tensor.New(x.Shape...)
	means := make([]float64, c)
	stds := make([]float64, c)
	var logVars []float64
	if bn.logStats {
		logVars = make([]float64, c)
	}
	for ch := 0; ch < c; ch++ {
		var sum float64
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ch) * plane
			for i := 0; i < plane; i++ {
				sum += float64(x.Data[base+i])
			}
		}
		mean := sum / float64(count)
		var sq float64
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ch) * plane
			for i := 0; i < plane; i++ {
				d := float64(x.Data[base+i]) - mean
				sq += d * d
			}
		}
		variance := sq / float64(count)
		std := math.Sqrt(variance + bn.Eps)
		means[ch], stds[ch] = mean, std

		if bn.logStats {
			logVars[ch] = variance
		} else {
			bn.runMean[ch] = (1-bn.Momentum)*bn.runMean[ch] + bn.Momentum*mean
			bn.runVar[ch] = (1-bn.Momentum)*bn.runVar[ch] + bn.Momentum*variance
		}

		g := float64(bn.gamma.Value.Data[ch])
		b := float64(bn.beta.Value.Data[ch])
		inv := 1 / std
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ch) * plane
			for i := 0; i < plane; i++ {
				xh := (float64(x.Data[base+i]) - mean) * inv
				xhat.Data[base+i] = float32(xh)
				out.Data[base+i] = float32(xh*g + b)
			}
		}
	}
	bn.xhat.push(xhat)
	bn.means = append(bn.means, means)
	bn.stds = append(bn.stds, stds)
	if bn.logStats {
		// Backward only truncates bn.means, so the log can share the
		// per-timestep slice.
		bn.meanLog = append(bn.meanLog, means)
		bn.varLog = append(bn.varLog, logVars)
	}
	return out
}

// DrainStats returns and clears the (mean, variance) pairs logged by a
// training replica in stat-log mode, one entry per training timestep in
// forward order. The trainer hands them to the primary's ReplayStats.
func (bn *BatchNorm2D) DrainStats() (means, vars [][]float64) {
	means, vars = bn.meanLog, bn.varLog
	bn.meanLog, bn.varLog = nil, nil
	return means, vars
}

// ReplayStats applies logged batch statistics to the running mean and
// variance with the same EMA update the in-place training path uses. The
// logged statistics do not depend on the running values, so replaying
// micro-batch logs in index order reproduces the serial update sequence
// bit-exactly no matter which replica computed each log.
func (bn *BatchNorm2D) ReplayStats(means, vars [][]float64) {
	for t := range means {
		for ch := 0; ch < bn.C; ch++ {
			bn.runMean[ch] = (1-bn.Momentum)*bn.runMean[ch] + bn.Momentum*means[t][ch]
			bn.runVar[ch] = (1-bn.Momentum)*bn.runVar[ch] + bn.Momentum*vars[t][ch]
		}
	}
}

// Backward implements Layer (standard batch-norm gradient).
func (bn *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	xhat := bn.xhat.pop()
	stds := bn.stds[len(bn.stds)-1]
	bn.stds = bn.stds[:len(bn.stds)-1]
	bn.means = bn.means[:len(bn.means)-1]

	n, c := grad.Shape[0], grad.Shape[1]
	plane := grad.Shape[2] * grad.Shape[3]
	count := float64(n * plane)
	out := tensor.New(grad.Shape...)
	for ch := 0; ch < c; ch++ {
		var sumG, sumGX float64
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ch) * plane
			for i := 0; i < plane; i++ {
				g := float64(grad.Data[base+i])
				sumG += g
				sumGX += g * float64(xhat.Data[base+i])
			}
		}
		bn.beta.Grad.Data[ch] += float32(sumG)
		bn.gamma.Grad.Data[ch] += float32(sumGX)

		gamma := float64(bn.gamma.Value.Data[ch])
		inv := gamma / stds[ch]
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ch) * plane
			for i := 0; i < plane; i++ {
				g := float64(grad.Data[base+i])
				xh := float64(xhat.Data[base+i])
				out.Data[base+i] = float32(inv * (g - sumG/count - xh*sumGX/count))
			}
		}
	}
	return out
}

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.gamma, bn.beta} }

// CloneInference implements Layer: γ/β and the running statistics are
// shared (read-only at inference); caches are private.
func (bn *BatchNorm2D) CloneInference() Layer {
	return &BatchNorm2D{
		C: bn.C, Eps: bn.Eps, Momentum: bn.Momentum,
		gamma: bn.gamma, beta: bn.beta,
		runMean: bn.runMean, runVar: bn.runVar,
	}
}

// CloneTraining implements Layer: γ/β values are shared with private
// gradients; the clone runs in stat-log mode so the shared running
// statistics are never written concurrently (see DrainStats/ReplayStats).
func (bn *BatchNorm2D) CloneTraining() Layer {
	return &BatchNorm2D{
		C: bn.C, Eps: bn.Eps, Momentum: bn.Momentum,
		gamma: shadowParam(bn.gamma), beta: shadowParam(bn.beta),
		runMean: bn.runMean, runVar: bn.runVar,
		logStats: true,
	}
}

// ResetState implements Layer.
func (bn *BatchNorm2D) ResetState() {
	bn.xhat.reset()
	bn.means = bn.means[:0]
	bn.stds = bn.stds[:0]
	bn.meanLog = nil
	bn.varLog = nil
}

// AvgPool2 is non-overlapping 2x2 average pooling.
type AvgPool2 struct {
	hw [][2]int // cached input spatial dims per timestep
}

// NewAvgPool2 constructs the pooling layer.
func NewAvgPool2() *AvgPool2 { return &AvgPool2{} }

// Forward implements Layer.
func (p *AvgPool2) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		p.hw = append(p.hw, [2]int{x.Shape[2], x.Shape[3]})
	}
	out := newActivation(train, x.Shape[0], x.Shape[1], x.Shape[2]/2, x.Shape[3]/2)
	tensor.AvgPool2(out, x)
	return out
}

// Backward implements Layer.
func (p *AvgPool2) Backward(grad *tensor.Tensor) *tensor.Tensor {
	hw := p.hw[len(p.hw)-1]
	p.hw = p.hw[:len(p.hw)-1]
	return tensor.AvgPool2Backward(grad, hw[0], hw[1])
}

// Params implements Layer.
func (p *AvgPool2) Params() []*Param { return nil }

// CloneInference implements Layer.
func (p *AvgPool2) CloneInference() Layer { return NewAvgPool2() }

// CloneTraining implements Layer.
func (p *AvgPool2) CloneTraining() Layer { return NewAvgPool2() }

// ResetState implements Layer.
func (p *AvgPool2) ResetState() { p.hw = p.hw[:0] }

// Flatten reshapes [N, C, H, W] features to [N, C*H*W] for the classifier
// head, restoring the shape on the way back.
type Flatten struct {
	shapes [][]int
}

// NewFlatten constructs the layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		f.shapes = append(f.shapes, append([]int(nil), x.Shape...))
	}
	n := x.Shape[0]
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	shape := f.shapes[len(f.shapes)-1]
	f.shapes = f.shapes[:len(f.shapes)-1]
	return grad.Reshape(shape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// CloneInference implements Layer.
func (f *Flatten) CloneInference() Layer { return NewFlatten() }

// CloneTraining implements Layer.
func (f *Flatten) CloneTraining() Layer { return NewFlatten() }

// ResetState implements Layer.
func (f *Flatten) ResetState() { f.shapes = f.shapes[:0] }

// Dropout zeroes a random subset of activations during training. Following
// SNN practice, one mask is drawn per sequence (at the first timestep after
// a reset) and reused for all T timesteps, so the dropped subnetwork is
// consistent through time.
type Dropout struct {
	P   float64
	rng *rand.Rand

	mask  []float32
	depth int
}

// NewDropout constructs a dropout layer with drop probability p.
func NewDropout(p float64, rng *rand.Rand) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("snn: dropout probability %v outside [0,1)", p))
	}
	return &Dropout{P: p, rng: rng}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		return x
	}
	if d.mask == nil || len(d.mask) != x.Len() {
		d.mask = make([]float32, x.Len())
		scale := float32(1 / (1 - d.P))
		for i := range d.mask {
			if d.rng.Float64() >= d.P {
				d.mask[i] = scale
			}
		}
	}
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = v * d.mask[i]
	}
	d.depth++
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	out := tensor.New(grad.Shape...)
	for i, v := range grad.Data {
		out.Data[i] = v * d.mask[i]
	}
	d.depth--
	return out
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// CloneInference implements Layer: dropout is an identity at inference,
// so the clone only carries the configuration (the rng is shared but
// untouched by inference-mode Forward).
func (d *Dropout) CloneInference() Layer { return &Dropout{P: d.P, rng: d.rng} }

// CloneTraining implements Layer: the clone starts with no rng — the
// trainer must install a deterministically derived one via SetRng before
// each micro-batch, so the mask depends only on the micro-batch identity
// (never on which replica lane ran it, which would break replica-count
// bit-identity; sharing the primary's rng across concurrent replicas
// would be both racy and order-dependent).
func (d *Dropout) CloneTraining() Layer { return &Dropout{P: d.P} }

// SetRng replaces the mask source. The training engine derives one rng
// per (step, micro-batch, dropout-layer ordinal) so masks are a pure
// function of the micro-batch, independent of replica count.
func (d *Dropout) SetRng(rng *rand.Rand) { d.rng = rng }

// ResetState implements Layer: a fresh mask is drawn next sequence.
func (d *Dropout) ResetState() {
	d.mask = nil
	d.depth = 0
}
