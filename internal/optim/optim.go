// Package optim implements the optimizer the training paths apply once
// gradients are synchronized: plain SGD. It is stateless and
// per-element, so replicas applying the same averaged gradients stay
// bit-identical, which the synchronized-training equivalence tests rely
// on.
package optim

import "fmt"

// SGD is plain stochastic gradient descent.
type SGD struct {
	LR float32
}

// Step applies one update: params -= LR * grad.
func (s SGD) Step(params, grad []float32) {
	if len(params) != len(grad) {
		panic(fmt.Sprintf("optim: params %d vs grad %d", len(params), len(grad)))
	}
	for i, g := range grad {
		params[i] -= s.LR * g
	}
}
