// Package harness implements the experiment suite: one registered
// experiment per table and figure of the hZCCL paper's evaluation section,
// each printing the same rows or series the paper reports.
//
// Experiments are self-contained functions over Options so the CLI tools
// (cmd/hzccl-compressor, cmd/hzccl-collective, cmd/hzccl-stacking), the
// root-level benchmarks and EXPERIMENTS.md all drive the same code.
package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Options configures experiment scale. Zero values select defaults sized
// for a single modest machine; Quick shrinks them further for smoke runs.
type Options struct {
	// Len is the per-field element count for compressor experiments
	// (default 1<<21; Quick 1<<18).
	Len int
	// Nodes is the rank count for fixed-node collective experiments
	// (default 16, standing in for the paper's 64; Quick 8).
	Nodes int
	// MaxNodes caps the node-scaling sweeps (default 512 as in the paper;
	// Quick 64).
	MaxNodes int
	// MessageBytes is the per-rank message size for node-scaling sweeps
	// (default 4 MB, standing in for the paper's 646 MB; Quick 1 MB).
	MessageBytes int
	// SweepBytes are the per-rank message sizes for the message-size
	// sweeps (Figures 9 and 11).
	SweepBytes []int
	// RelBound is the relative error bound used to derive the absolute
	// bound for collective experiments (default 1e-4, the paper's
	// default bound).
	RelBound float64
	// Latency is the modeled per-message latency α (default 2 µs).
	Latency time.Duration
	// Bandwidth is the modeled *effective* per-link bandwidth in
	// bytes/second (default 0.4e9). The paper's fabric is 100 Gbps line
	// rate, but its own Figure 2 / Table VII breakdowns imply an
	// effective per-hop MPI bandwidth well under 1 GB/s for
	// large-message ring collectives (DOC at ~1 GB/s accounts for
	// 78%/52% of C-Coll runtime while C-Coll still beats MPI); using an
	// effective figure in that band reproduces the paper's
	// compute/communication balance on this machine.
	Bandwidth float64
	// MTThreads is the compressor chunk count of the multi-thread mode
	// (default 18), whose compute charges core.MTSpeedup divides.
	MTThreads int
	// Trials repeats each codec timing and keeps the fastest (default 1;
	// raise it when measuring on a loaded machine). Collective virtual
	// times are charged at calibrated rates and need one run.
	Trials int
	// Quick shrinks all scales for fast smoke runs.
	Quick bool
	// OutDir receives image artifacts (Figure 13); empty disables writes.
	OutDir string
}

// WithDefaults returns o with zero fields replaced by defaults.
func (o Options) WithDefaults() Options {
	def := func(v *int, normal, quick int) {
		if *v == 0 {
			if o.Quick {
				*v = quick
			} else {
				*v = normal
			}
		}
	}
	def(&o.Len, 1<<21, 1<<18)
	def(&o.Nodes, 16, 8)
	def(&o.MaxNodes, 512, 64)
	def(&o.MessageBytes, 4<<20, 1<<20)
	if len(o.SweepBytes) == 0 {
		if o.Quick {
			o.SweepBytes = []int{128 << 10, 512 << 10, 2 << 20}
		} else {
			o.SweepBytes = []int{256 << 10, 1 << 20, 4 << 20, 16 << 20}
		}
	}
	if o.RelBound == 0 {
		o.RelBound = 1e-4
	}
	if o.Latency == 0 {
		o.Latency = 2 * time.Microsecond
	}
	if o.Bandwidth == 0 {
		o.Bandwidth = 0.4e9
	}
	if o.MTThreads == 0 {
		o.MTThreads = 18
	}
	if o.Trials == 0 {
		o.Trials = 1
	}
	return o
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the registry key, e.g. "table3" or "fig10".
	ID string
	// Title describes the paper element the experiment regenerates.
	Title string
	// Run prints the experiment's rows/series to w.
	Run func(w io.Writer, opt Options) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns all registered experiments sorted by ID (tables
// first, then figures, each numerically).
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return idKey(out[i].ID) < idKey(out[j].ID) })
	return out
}

func idKey(id string) string {
	// "table3" → "0-03", "fig10" → "1-10"
	kind, num := "9", id
	switch {
	case strings.HasPrefix(id, "table"):
		kind, num = "0", id[len("table"):]
	case strings.HasPrefix(id, "fig"):
		kind, num = "1", id[len("fig"):]
	}
	return fmt.Sprintf("%s-%02s", kind, num)
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every registered experiment in order.
func RunAll(w io.Writer, opt Options) error {
	for _, e := range Experiments() {
		fmt.Fprintf(w, "\n===== %s: %s =====\n", e.ID, e.Title)
		if err := e.Run(w, opt); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// Table accumulates rows and prints them with aligned columns.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// Row appends one row; cells beyond the header count are dropped.
func (t *Table) Row(cells ...string) {
	if len(cells) > len(t.headers) {
		cells = cells[:len(t.headers)]
	}
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Fprint writes the table with padded columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// F formats a float compactly for table cells. Undefined values (NaN,
// e.g. a range-normalized metric of a constant field) print as "n/a" so
// they cannot be misread as a measured zero.
func F(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

// E formats a float in scientific notation (for NRMSE-style cells).
// Undefined values (NaN) print as "n/a".
func E(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2e", v)
}

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// Bytes formats a byte count with binary units.
func Bytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.0fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.0fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
