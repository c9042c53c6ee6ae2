// Package neural implements a compact feed-forward neural network trained
// by stochastic gradient descent. The Adaptive-RL agent's structure is
// "designed based on a neural network presented in [10]" (§IV.B, citing
// Zomaya, Clements & Olariu, TPDS 1998); the agent uses this network as a
// value-function approximator that maps (state, action) features to an
// expected learning value, refined online from the dual feedback signals.
//
// The implementation is deliberately small and allocation-free on the hot
// predict/train path: fixed topology, tanh hidden activations, a linear
// output layer, squared-error loss, SGD with momentum, and deterministic
// weight initialisation from an rng.Stream.
package neural

import (
	"fmt"
	"math"

	"rlsched/internal/rng"
)

// Config describes the network topology and training hyper-parameters.
type Config struct {
	// Inputs is the feature dimension.
	Inputs int
	// Hidden lists hidden-layer widths (tanh activations). May be empty,
	// degenerating to a linear model.
	Hidden []int
	// Outputs is the output dimension (linear).
	Outputs int
	// LearningRate is the SGD step size.
	LearningRate float64
	// Momentum is the classical momentum coefficient in [0, 1).
	Momentum float64
	// InitScale bounds the uniform weight initialisation.
	InitScale float64
}

// DefaultConfig returns a small network suited to the agent's 6-feature
// action-value estimation problem.
func DefaultConfig(inputs int) Config {
	return Config{
		Inputs:       inputs,
		Hidden:       []int{8},
		Outputs:      1,
		LearningRate: 0.05,
		Momentum:     0.5,
		InitScale:    0.3,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Inputs <= 0:
		return fmt.Errorf("neural: Inputs must be positive, got %d", c.Inputs)
	case c.Outputs <= 0:
		return fmt.Errorf("neural: Outputs must be positive, got %d", c.Outputs)
	case c.LearningRate <= 0:
		return fmt.Errorf("neural: LearningRate must be positive, got %g", c.LearningRate)
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("neural: Momentum must be in [0,1), got %g", c.Momentum)
	case c.InitScale <= 0:
		return fmt.Errorf("neural: InitScale must be positive, got %g", c.InitScale)
	}
	for i, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("neural: Hidden[%d] must be positive, got %d", i, h)
		}
	}
	return nil
}

// layer is one dense layer: out = act(W·in + b).
type layer struct {
	in, out  int
	w        []float64 // out*in, row-major
	b        []float64
	vw       []float64 // momentum buffers
	vb       []float64
	hidden   bool // tanh if true, linear otherwise
	activity []float64
	preact   []float64
	delta    []float64
}

// Network is a feed-forward MLP. It is not safe for concurrent use.
type Network struct {
	cfg    Config
	layers []*layer
	// scratch input copy so Train can reuse forward activations safely.
	input   []float64
	trained uint64
	// prefix holds the first layer's partial sums over the leading
	// prefixLen inputs, set by SetPrefix and read by PredictRest1;
	// prefixOK is cleared whenever the weights change.
	prefix    []float64
	prefixLen int
	prefixOK  bool
}

// New builds a network with weights initialised uniformly in
// [-InitScale, InitScale] from r.
func New(cfg Config, r *rng.Stream) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, input: make([]float64, cfg.Inputs)}
	dims := append([]int{cfg.Inputs}, cfg.Hidden...)
	dims = append(dims, cfg.Outputs)
	for li := 1; li < len(dims); li++ {
		l := &layer{
			in:       dims[li-1],
			out:      dims[li],
			hidden:   li < len(dims)-1,
			w:        make([]float64, dims[li]*dims[li-1]),
			b:        make([]float64, dims[li]),
			vw:       make([]float64, dims[li]*dims[li-1]),
			vb:       make([]float64, dims[li]),
			activity: make([]float64, dims[li]),
			preact:   make([]float64, dims[li]),
			delta:    make([]float64, dims[li]),
		}
		for i := range l.w {
			l.w[i] = r.Uniform(-cfg.InitScale, cfg.InitScale)
		}
		for i := range l.b {
			l.b[i] = r.Uniform(-cfg.InitScale, cfg.InitScale)
		}
		n.layers = append(n.layers, l)
	}
	return n, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config, r *rng.Stream) *Network {
	n, err := New(cfg, r)
	if err != nil {
		panic(err)
	}
	return n
}

// Trained returns the number of Train calls performed.
func (n *Network) Trained() uint64 { return n.trained }

// forward runs the network, leaving activations in each layer.
func (n *Network) forward(x []float64) []float64 {
	if len(x) != n.cfg.Inputs {
		panic(fmt.Sprintf("neural: input dimension %d, want %d", len(x), n.cfg.Inputs))
	}
	copy(n.input, x)
	return n.forwardFrom(0, n.input)
}

// forwardFrom runs layers[start:] on cur, the input of layers[start].
func (n *Network) forwardFrom(start int, cur []float64) []float64 {
	for _, l := range n.layers[start:] {
		for o := 0; o < l.out; o++ {
			sum := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i, v := range cur {
				sum += row[i] * v
			}
			l.activate(o, sum)
		}
		cur = l.activity
	}
	return cur
}

// activate records unit o's pre-activation and its activation.
func (l *layer) activate(o int, sum float64) {
	l.preact[o] = sum
	if l.hidden {
		l.activity[o] = math.Tanh(sum)
	} else {
		l.activity[o] = sum
	}
}

// SetPrefix fixes the leading len(x) inputs for the following PredictRest1
// calls: it stores the first layer's bias plus the products of those
// inputs, accumulated in index order exactly as a full forward pass does.
// Callers that score many inputs sharing a prefix (the agent's candidate
// actions under one state) then pay only for the remaining inputs.
func (n *Network) SetPrefix(x []float64) {
	if len(x) > n.cfg.Inputs {
		panic(fmt.Sprintf("neural: prefix dimension %d exceeds %d inputs", len(x), n.cfg.Inputs))
	}
	l := n.layers[0]
	if n.prefix == nil {
		n.prefix = make([]float64, l.out)
	}
	for o := 0; o < l.out; o++ {
		sum := l.b[o]
		row := l.w[o*l.in : o*l.in+len(x)]
		for i, v := range x {
			sum += row[i] * v
		}
		n.prefix[o] = sum
	}
	n.prefixLen, n.prefixOK = len(x), true
}

// PredictRest1 is Predict1 on the input whose leading features were given
// to SetPrefix and whose remaining features are rest. The first-layer sums
// continue from the stored prefix in the same index order, so the result
// is bit-for-bit Predict1 of the whole input. Like Predict1 it leaves the
// activations in each layer, but it does not record the input. The prefix
// lapses when the weights change (Train, SetWeights): call SetPrefix again.
func (n *Network) PredictRest1(rest []float64) float64 {
	if !n.prefixOK || n.prefixLen+len(rest) != n.cfg.Inputs {
		panic(fmt.Sprintf("neural: no current prefix for %d more inputs of %d (SetPrefix first)",
			len(rest), n.cfg.Inputs))
	}
	l := n.layers[0]
	for o := 0; o < l.out; o++ {
		sum := n.prefix[o]
		row := l.w[o*l.in+n.prefixLen : (o+1)*l.in]
		for i, v := range rest {
			sum += row[i] * v
		}
		l.activate(o, sum)
	}
	return n.forwardFrom(1, l.activity)[0]
}

// Predict1 returns the output of a single-output network for x.
func (n *Network) Predict1(x []float64) float64 {
	out := n.forward(x)
	return out[0]
}

// Train performs one SGD step on example (x, target) under squared-error
// loss and returns the pre-update loss.
func (n *Network) Train(x, target []float64) float64 {
	if len(target) != n.cfg.Outputs {
		panic(fmt.Sprintf("neural: target dimension %d, want %d", len(target), n.cfg.Outputs))
	}
	out := n.forward(x)
	loss := 0.0
	last := n.layers[len(n.layers)-1]
	for o := range out {
		diff := out[o] - target[o]
		loss += 0.5 * diff * diff
		last.delta[o] = diff // linear output: dL/dpre = diff
	}

	// Backpropagate deltas.
	for li := len(n.layers) - 2; li >= 0; li-- {
		l, next := n.layers[li], n.layers[li+1]
		for i := 0; i < l.out; i++ {
			sum := 0.0
			for o := 0; o < next.out; o++ {
				sum += next.w[o*next.in+i] * next.delta[o]
			}
			// tanh'(pre) = 1 - tanh(pre)^2 = 1 - activity^2
			l.delta[i] = sum * (1 - l.activity[i]*l.activity[i])
		}
	}

	// Gradient step with momentum, layer by layer.
	prev := n.input
	lr, mom := n.cfg.LearningRate, n.cfg.Momentum
	for _, l := range n.layers {
		for o := 0; o < l.out; o++ {
			d := l.delta[o]
			row := l.w[o*l.in : (o+1)*l.in]
			vrow := l.vw[o*l.in : (o+1)*l.in]
			for i := range row {
				vrow[i] = mom*vrow[i] - lr*d*prev[i]
				row[i] += vrow[i]
			}
			l.vb[o] = mom*l.vb[o] - lr*d
			l.b[o] += l.vb[o]
		}
		prev = l.activity
	}
	n.trained++
	n.prefixOK = false
	return loss
}

// Train1 is Train for single-output networks.
func (n *Network) Train1(x []float64, target float64) float64 {
	return n.Train(x, []float64{target})
}

// NumParams returns the number of trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.w) + len(l.b)
	}
	return total
}

// Weights returns a flat copy of all trainable parameters in a stable
// order (per layer: weights row-major, then biases). Together with
// SetWeights it supports checkpointing trained networks.
func (n *Network) Weights() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, l := range n.layers {
		out = append(out, l.w...)
		out = append(out, l.b...)
	}
	return out
}

// SetWeights restores parameters captured by Weights. The slice length
// must match NumParams exactly; momentum buffers are reset.
func (n *Network) SetWeights(ws []float64) error {
	if len(ws) != n.NumParams() {
		return fmt.Errorf("neural: weight count %d, want %d", len(ws), n.NumParams())
	}
	i := 0
	for _, l := range n.layers {
		i += copy(l.w, ws[i:i+len(l.w)])
		i += copy(l.b, ws[i:i+len(l.b)])
		for j := range l.vw {
			l.vw[j] = 0
		}
		for j := range l.vb {
			l.vb[j] = 0
		}
	}
	n.prefixOK = false
	return nil
}
