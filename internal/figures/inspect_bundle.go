package figures

import (
	"fmt"
	"io"
	"os"
	"phastlane/internal/mesh"

	"phastlane/internal/exp"
	"phastlane/internal/obs"
	"phastlane/internal/provenance"
	"phastlane/internal/stats"
)

// BundleOpts selects the outputs of a deep dive; cmd/phastlane and
// cmd/reproduce map their -trace-out/-metrics-out/-heatmap flags straight
// onto it.
type BundleOpts struct {
	// TracePath, when non-empty, receives a Perfetto trace-event JSON
	// file covering every inspected point (one trace process per point,
	// one thread per node). The file is re-read and validated after the
	// run so a truncated or malformed trace fails loudly.
	TracePath string
	// MetricsPath receives the merged per-node event matrices as CSV.
	MetricsPath string
	// SeriesPath receives the merged cycle-windowed time series as CSV.
	SeriesPath string
	// Heatmap prints link-utilization and drop heatmaps to the writer.
	Heatmap bool
	// WhyTop caps the table rows of the tail-blame reports printed for
	// points that carried a provenance tracker (0 = provenance default).
	WhyTop int
}

// Bundle is a deep dive's open outputs. InspectBundle opens one around
// its grid and cmd/phastlane around its one run: Open before the runs,
// attach each point's Collector to its run, then Write the results.
type Bundle struct {
	opts   BundleOpts
	points int
	f      *os.File
	tf     *obs.TraceFile
}

// Open starts the outputs of a deep dive over points. With a TracePath
// it creates the trace file, names one trace process per point (pid =
// index) and sets each point's Trace to that process's tracer.
func (b BundleOpts) Open(points []InspectOpts) (*Bundle, error) {
	bd := &Bundle{opts: b, points: len(points)}
	if b.TracePath == "" {
		return bd, nil
	}
	f, err := os.Create(b.TracePath)
	if err != nil {
		return nil, err
	}
	bd.f, bd.tf = f, obs.NewTraceFile(f)
	for pid := range points {
		if tp := points[pid].Topo; tp != nil {
			bd.tf.ProcessNodes(pid, points[pid].Name, tp.Endpoints(), func(n int) string {
				return tp.NodeLabel(mesh.NodeID(n))
			})
		} else {
			bd.tf.Process(pid, points[pid].Name, points[pid].Width, points[pid].Height)
		}
		points[pid].Trace = bd.tf.Tracer(pid)
	}
	return bd, nil
}

// Write materialises the outputs for results, one per point in order:
// the optional heatmaps and the tail-blame report of every result that
// carries a tracker on w, the CSV files, and the self-validated Perfetto
// trace.
func (bd *Bundle) Write(results []InspectResult, w io.Writer) error {
	if bd.f != nil {
		defer bd.f.Close()
	}
	b := bd.opts
	if b.Heatmap {
		fmt.Fprint(w, InspectHeatmaps(results))
	}
	top := b.WhyTop
	if top <= 0 {
		top = provenance.DefaultTop
	}
	for i := range results {
		r := &results[i]
		if r.Prov == nil {
			continue
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, r.Prov.Report(r.Name).Format(top))
		if bd.tf != nil {
			// The slow-packet span trees load as an extra trace process
			// next to the per-node network tracks.
			r.Prov.ExportPerfetto(bd.tf, bd.points+i, r.Name)
		}
	}
	for _, csv := range []struct {
		path  string
		table func([]InspectResult) *stats.Table
	}{{b.MetricsPath, InspectMetricsTable}, {b.SeriesPath, InspectSeriesTable}} {
		if csv.path == "" {
			continue
		}
		if err := os.WriteFile(csv.path, []byte(csv.table(results).CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", csv.path)
	}
	if bd.tf == nil {
		return nil
	}
	if err := bd.tf.Close(); err != nil {
		return err
	}
	if err := bd.f.Close(); err != nil {
		return err
	}
	f, err := os.Open(b.TracePath)
	if err != nil {
		return err
	}
	n, err := obs.ValidateTrace(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("trace %s failed validation: %w", b.TracePath, err)
	}
	fmt.Fprintf(w, "wrote %s (%d events, Perfetto trace-event format)\n", b.TracePath, n)
	return nil
}

// InspectBundle runs an inspection grid and materialises the requested
// outputs: the summary table (always) on w, then Bundle.Write's.
func InspectBundle(opts []InspectOpts, engine exp.Options, b BundleOpts, w io.Writer) ([]InspectResult, error) {
	bd, err := b.Open(opts)
	if err != nil {
		return nil, err
	}
	results := InspectGrid(opts, engine)
	fmt.Fprintln(w, InspectSummaryTable(results))
	if err := bd.Write(results, w); err != nil {
		return nil, err
	}
	return results, nil
}

// Enabled reports whether any output that reads a collector was
// requested: cmd/reproduce runs its deep dive only then, and
// cmd/phastlane attaches a collector to its run only then.
func (b BundleOpts) Enabled() bool {
	return b.TracePath != "" || b.MetricsPath != "" || b.SeriesPath != "" || b.Heatmap
}
