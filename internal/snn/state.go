package snn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"falvolt/internal/tensor"
)

// NetworkState is a serializable snapshot of everything a trained network
// needs to be restored: parameter tensors, batch-norm running statistics,
// and neuron threshold/time-constant scalars (captured regardless of
// whether they are currently marked learnable).
type NetworkState struct {
	Entries []LayerState
}

// LayerState is the snapshot of one layer.
type LayerState struct {
	Kind    string
	Tensors [][]float32
	Shapes  [][]int
	Floats  [][]float64
}

func snapTensor(t *tensor.Tensor) ([]float32, []int) {
	d := make([]float32, len(t.Data))
	copy(d, t.Data)
	s := append([]int(nil), t.Shape...)
	return d, s
}

// State captures a deep snapshot of the network.
func (n *Network) State() *NetworkState {
	st := &NetworkState{}
	for _, l := range n.Layers {
		var e LayerState
		switch v := l.(type) {
		case *Conv2D:
			e.Kind = "conv"
			for _, p := range v.Params() {
				d, s := snapTensor(p.Value)
				e.Tensors = append(e.Tensors, d)
				e.Shapes = append(e.Shapes, s)
			}
		case *Linear:
			e.Kind = "linear"
			for _, p := range v.Params() {
				d, s := snapTensor(p.Value)
				e.Tensors = append(e.Tensors, d)
				e.Shapes = append(e.Shapes, s)
			}
		case *BatchNorm2D:
			e.Kind = "batchnorm"
			for _, p := range []*Param{v.gamma, v.beta} {
				d, s := snapTensor(p.Value)
				e.Tensors = append(e.Tensors, d)
				e.Shapes = append(e.Shapes, s)
			}
			e.Floats = append(e.Floats,
				append([]float64(nil), v.runMean...),
				append([]float64(nil), v.runVar...))
		case *PLIFNode:
			e.Kind = "plif"
			e.Floats = append(e.Floats, []float64{
				float64(v.vth.Value.Data[0]),
				float64(v.tauW.Value.Data[0]),
			})
		default:
			e.Kind = "stateless"
		}
		st.Entries = append(st.Entries, e)
	}
	return st
}

// LoadState restores a snapshot taken from a structurally identical
// network.
func (n *Network) LoadState(st *NetworkState) error {
	if len(st.Entries) != len(n.Layers) {
		return fmt.Errorf("snn: state has %d layers, network has %d", len(st.Entries), len(n.Layers))
	}
	restore := func(e LayerState, params []*Param, kind string) error {
		if len(e.Tensors) != len(params) {
			return fmt.Errorf("snn: %s state has %d tensors, layer has %d params", kind, len(e.Tensors), len(params))
		}
		for i, p := range params {
			if len(e.Tensors[i]) != p.Value.Len() {
				return fmt.Errorf("snn: %s param %d size %d vs %d", kind, i, len(e.Tensors[i]), p.Value.Len())
			}
			copy(p.Value.Data, e.Tensors[i])
		}
		return nil
	}
	for i, l := range n.Layers {
		e := st.Entries[i]
		switch v := l.(type) {
		case *Conv2D:
			if e.Kind != "conv" {
				return fmt.Errorf("snn: layer %d kind %q, want conv", i, e.Kind)
			}
			if err := restore(e, v.Params(), "conv"); err != nil {
				return err
			}
		case *Linear:
			if e.Kind != "linear" {
				return fmt.Errorf("snn: layer %d kind %q, want linear", i, e.Kind)
			}
			if err := restore(e, v.Params(), "linear"); err != nil {
				return err
			}
		case *BatchNorm2D:
			if e.Kind != "batchnorm" {
				return fmt.Errorf("snn: layer %d kind %q, want batchnorm", i, e.Kind)
			}
			if err := restore(e, []*Param{v.gamma, v.beta}, "batchnorm"); err != nil {
				return err
			}
			if len(e.Floats) != 2 || len(e.Floats[0]) != len(v.runMean) {
				return fmt.Errorf("snn: batchnorm running stats mismatch at layer %d", i)
			}
			copy(v.runMean, e.Floats[0])
			copy(v.runVar, e.Floats[1])
		case *PLIFNode:
			if e.Kind != "plif" {
				return fmt.Errorf("snn: layer %d kind %q, want plif", i, e.Kind)
			}
			if len(e.Floats) != 1 || len(e.Floats[0]) != 2 {
				return fmt.Errorf("snn: plif state malformed at layer %d", i)
			}
			v.vth.Value.Data[0] = float32(e.Floats[0][0])
			v.tauW.Value.Data[0] = float32(e.Floats[0][1])
		}
	}
	return nil
}

// SaveStateFile writes a snapshot to path with encoding/gob,
// crash-safely: the bytes go to a temp file in the same directory, are
// fsynced and closed, and the temp file is renamed over path. A killed
// or failed write never leaves a truncated snapshot at path.
func SaveStateFile(st *NetworkState, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snn: save state: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := gob.NewEncoder(tmp).Encode(st); err != nil {
		tmp.Close()
		return fmt.Errorf("snn: encode state: %w", err)
	}
	// CreateTemp's private 0600 would survive the rename; keep the
	// conventional 0644 a plain create gave.
	err = errors.Join(tmp.Sync(), tmp.Chmod(0o644), tmp.Close())
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("snn: save state: %w", err)
	}
	return nil
}

// LoadStateFile reads a snapshot written by SaveStateFile.
func LoadStateFile(path string) (*NetworkState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snn: load state: %w", err)
	}
	defer f.Close()
	var st NetworkState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, fmt.Errorf("snn: decode state: %w", err)
	}
	return &st, nil
}
