package obs

import (
	"fmt"
	"strings"

	"phastlane/internal/mesh"
	"phastlane/internal/stats"
)

// Metrics accumulates per-node and per-direction counter matrices from an
// Event stream. Use Observe as (or inside) a network tracer; it is not
// goroutine-safe, so give each network its own Metrics.
type Metrics struct {
	Width, Height int
	perNode       [NumKinds][]int64
	// link[node*NumLinkDirs+dir] counts packet traversals of the
	// directed link out of node toward dir (optical launches and
	// passes, electrical switch traversals).
	link []int64
}

// NewMetrics builds an empty matrix set for a width x height mesh.
func NewMetrics(width, height int) *Metrics {
	m := &Metrics{Width: width, Height: height}
	nodes := width * height
	for k := range m.perNode {
		m.perNode[k] = make([]int64, nodes)
	}
	m.link = make([]int64, nodes*mesh.NumLinkDirs)
	return m
}

// Nodes returns the node count.
func (m *Metrics) Nodes() int { return m.Width * m.Height }

// Observe folds one event into the matrices.
func (m *Metrics) Observe(e Event) {
	if e.Kind < 0 || e.Kind >= NumKinds || int(e.Node) >= m.Nodes() {
		return
	}
	m.perNode[e.Kind][e.Node]++
	if e.Dir < mesh.NumLinkDirs {
		switch e.Kind {
		case KindLaunch, KindPass, KindSwitch:
			m.link[int(e.Node)*mesh.NumLinkDirs+int(e.Dir)]++
		}
	}
}

// Count returns the per-node count of one kind.
func (m *Metrics) Count(k Kind, node mesh.NodeID) int64 { return m.perNode[k][node] }

// Total sums one kind over all nodes.
func (m *Metrics) Total(k Kind) int64 {
	var sum int64
	for _, v := range m.perNode[k] {
		sum += v
	}
	return sum
}

// Link returns traversals of the directed link out of node toward d.
func (m *Metrics) Link(node mesh.NodeID, d mesh.Dir) int64 {
	return m.link[int(node)*mesh.NumLinkDirs+int(d)]
}

// LinkUtilization returns, per node, the total traversals of its four
// outgoing links - the utilization surface the heatmap renders.
func (m *Metrics) LinkUtilization() []int64 {
	out := make([]int64, m.Nodes())
	for n := range out {
		for d := 0; d < mesh.NumLinkDirs; d++ {
			out[n] += m.link[n*mesh.NumLinkDirs+d]
		}
	}
	return out
}

// Equal reports whether two matrix sets hold identical counts - the
// determinism tests' comparison.
func (m *Metrics) Equal(o *Metrics) bool {
	if m.Width != o.Width || m.Height != o.Height {
		return false
	}
	for k := range m.perNode {
		for n, v := range m.perNode[k] {
			if o.perNode[k][n] != v {
				return false
			}
		}
	}
	for i, v := range m.link {
		if o.link[i] != v {
			return false
		}
	}
	return true
}

// tableKinds are the columns of the CSV/table export, in lifecycle order.
var tableKinds = []Kind{
	KindLaunch, KindPass, KindTap, KindEject, KindBuffer, KindDrop,
	KindRetry, KindVCAlloc, KindSwitch, KindCreditStall, KindTreeFork,
}

// Table renders the matrices as one row per node, labelled with the given
// network name; Table(...).CSV() is the -metrics-out format.
func (m *Metrics) Table(network string) *stats.Table {
	cols := []string{"network", "node", "x", "y"}
	for _, k := range tableKinds {
		cols = append(cols, k.String())
	}
	cols = append(cols, "linkN", "linkE", "linkS", "linkW")
	t := &stats.Table{Columns: cols}
	for n := 0; n < m.Nodes(); n++ {
		cells := []string{
			network,
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", n%m.Width),
			fmt.Sprintf("%d", n/m.Width),
		}
		for _, k := range tableKinds {
			cells = append(cells, fmt.Sprintf("%d", m.perNode[k][n]))
		}
		for d := 0; d < mesh.NumLinkDirs; d++ {
			cells = append(cells, fmt.Sprintf("%d", m.link[n*mesh.NumLinkDirs+d]))
		}
		t.AddRow(cells...)
	}
	return t
}

// heatRamp shades cells from idle to saturated.
var heatRamp = []byte(" .:-=+*#%@")

// Heatmap renders a per-node value surface as a width x height ASCII grid
// (row 0 at the top, matching mesh coordinates), with a scale legend.
func Heatmap(title string, width, height int, values []int64) string {
	var max int64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max %d)\n", title, max)
	for y := 0; y < height; y++ {
		b.WriteString("  ")
		for x := 0; x < width; x++ {
			v := values[y*width+x]
			idx := 0
			if max > 0 {
				idx = int(v * int64(len(heatRamp)-1) / max)
			}
			c := heatRamp[idx]
			b.WriteByte(c)
			b.WriteByte(c)
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  scale: '%c'=0", heatRamp[0])
	if max > 0 {
		fmt.Fprintf(&b, " ... '%c'=%d", heatRamp[len(heatRamp)-1], max)
	}
	b.WriteByte('\n')
	return b.String()
}

// UtilizationHeatmap renders the outgoing-link utilization surface.
func (m *Metrics) UtilizationHeatmap(network string) string {
	return Heatmap(fmt.Sprintf("%s link utilization (traversals/node)", network),
		m.Width, m.Height, m.LinkUtilization())
}

// DropHeatmap renders the per-node drop surface.
func (m *Metrics) DropHeatmap(network string) string {
	return Heatmap(fmt.Sprintf("%s drops/node", network),
		m.Width, m.Height, m.perNode[KindDrop])
}
