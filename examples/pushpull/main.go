// Push/pull integration: drive COARSE the way a DL framework plugin
// would (paper Section IV-B: "the user just needs to import COARSE...
// which typically requires 2 lines of code change").
//
// Instead of the built-in trainer, this example runs its own training
// loop: each worker computes a local gradient, Pushes it, Pulls the
// synchronized average, and applies the update — the parameter-server
// interface of Figure 7, with routing, partitioning and the sync-core
// collectives happening underneath.
//
//	go run ./examples/pushpull
package main

import (
	"fmt"
	"log"

	coarse "coarse"
)

func main() {
	session, err := coarse.NewSession(coarse.AWSV100())
	if err != nil {
		log.Fatal(err)
	}
	clients := session.Clients()
	fmt.Printf("session on AWS V100: %d parameter clients\n\n", len(clients))

	// A toy "model": one 1M-element tensor, replicated per worker.
	const n = 1 << 20
	replicas := make([][]float32, len(clients))
	for w := range replicas {
		replicas[w] = make([]float32, n) // all start at zero
	}

	// NewSession ran the offline probe profiler, which consumed some
	// virtual time already; report per-iteration deltas.
	last := session.Engine().Now()

	const lr = 0.1
	for iter := 1; iter <= 3; iter++ {
		// Each worker computes a different local "gradient".
		for w, c := range clients {
			grad := &coarse.Tensor{Name: "w", Data: make([]float32, n)}
			for i := range grad.Data {
				grad.Data[i] = float32(w + 1)
			}
			if err := c.Push(grad); err != nil {
				log.Fatal(err)
			}
		}
		// Pull the synchronized average and apply SGD locally.
		for w, c := range clients {
			w := w
			c.Pull("w", func(t *coarse.Tensor) {
				for i, g := range t.Data {
					replicas[w][i] -= lr * g
				}
			})
		}
		now := session.Drain()
		session.Reset()
		// Mean gradient = (1+2+3+4)/4 = 2.5, so every replica moves by
		// -0.25 per iteration, in lockstep.
		fmt.Printf("iteration %d: sync took %v, replica[0][0] = %.2f (all replicas equal: %v)\n",
			iter, now-last, replicas[0][0], replicasEqual(replicas))
		last = now
	}
}

func replicasEqual(replicas [][]float32) bool {
	for w := 1; w < len(replicas); w++ {
		for i := range replicas[w] {
			if replicas[w][i] != replicas[0][i] {
				return false
			}
		}
	}
	return true
}
