// Command tracegen runs the snoopy cache-coherence substrate over a SPLASH2
// workload model and writes the resulting dependency-carrying packet trace
// to a file, which cmd/phastlane can replay on either network (-net
// optical or -net electrical) - the same shared-trace methodology as the
// paper's Section 4.
//
// Usage:
//
//	tracegen -benchmark Ocean -out ocean.trace
//	tracegen -benchmark LU -messages 10000 -out lu.trace
package main

import (
	"flag"
	"fmt"
	"os"
	"phastlane/internal/cliflags"

	"phastlane/internal/coherence"
	"phastlane/internal/telemetry"
	"phastlane/internal/trace"
)

func main() {
	benchmark := flag.String("benchmark", "", "Table 3 benchmark name (required; see -list)")
	out := flag.String("out", "", "output trace file (required)")
	messages := flag.Int("messages", 0, "override trace length (0 = benchmark default)")
	protocol := flag.String("protocol", "snoopy", "coherence protocol: snoopy (paper) or directory")
	seed := cliflags.Seed(flag.CommandLine)
	list := flag.Bool("list", false, "list available benchmarks and exit")
	telemetryAddr := cliflags.TelemetryAddr(flag.CommandLine)
	flag.Parse()
	cliflags.Counts("tracegen", flag.CommandLine, "messages")
	if _, err := telemetry.Start(*telemetryAddr, nil); err != nil {
		fail(err)
	}

	if *list {
		for _, p := range coherence.Benchmarks() {
			fmt.Printf("%-16s %s (~%d messages)\n", p.Name, p.DataSet, p.Messages)
		}
		return
	}
	if *benchmark == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	p, err := coherence.BenchmarkByName(*benchmark)
	if err != nil {
		fail(err)
	}
	if *messages > 0 {
		p.Messages = *messages
	}
	switch *protocol {
	case "snoopy":
		p.Protocol = coherence.Snoopy
	case "directory":
		p.Protocol = coherence.DirectoryMSI
	default:
		fail(fmt.Errorf("unknown protocol %q", *protocol))
	}
	tr, err := coherence.GenerateTrace(p, coherence.DefaultConfig(), *seed)
	if err != nil {
		fail(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := trace.Write(f, tr); err != nil {
		fail(err)
	}
	broadcasts := 0
	for _, m := range tr.Messages {
		if m.IsBroadcast() {
			broadcasts++
		}
	}
	fmt.Printf("%s: wrote %d messages (%d broadcasts, %d unicasts) to %s\n",
		p.Name, len(tr.Messages), broadcasts, len(tr.Messages)-broadcasts, *out)
}

func fail(err error) { cliflags.Fail("tracegen", err) }
