// Command coarseprof runs the offline communication profiler on a
// machine preset and prints each worker's routing table: the
// latency-best proxy, the bandwidth-best proxy, the size threshold S and
// the partition shard size S' (paper Section III-E). Machine names
// resolve through internal/config, the table coarsesim uses.
//
// Usage:
//
//	coarseprof -machine v100
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	coarse "coarse"
	"coarse/internal/config"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the routing tables to
// stdout and diagnostics to stderr, and returns the exit status. An
// unknown machine exits 1 with the reason on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coarseprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machine := fs.String("machine", "v100", "machine preset: "+strings.Join(config.MachineNames(), ", "))
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	spec, err := config.Machine(*machine, 0)
	if err != nil {
		fmt.Fprintln(stderr, "coarseprof:", err)
		return 1
	}

	fmt.Fprintf(stdout, "offline profile of %s\n\n", spec.Label)
	for w, table := range coarse.Profile(spec) {
		fmt.Fprintf(stdout, "worker %d: LatProxy=%d BwProxy=%d threshold=%s partition=%s non-uniform=%v\n",
			w, table.LatProxy, table.BwProxy,
			size(table.ThresholdBytes), size(table.PartitionBytes), table.NonUniform())
		for _, m := range table.Measurements {
			fmt.Fprintf(stdout, "    proxy %d: latency=%v bandwidth=%.2f GB/s\n",
				m.Proxy, m.Latency, m.Bandwidth/1e9)
		}
	}
	return 0
}

func size(b int64) string {
	switch {
	case b >= 1<<40:
		return "inf"
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKiB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}
