// Command perfbench measures the accelwalld daemon end to end and layer by
// layer. It is normally started through run.py, which builds the daemon
// and this program from the checkout first:
//
//	python3 perfbench/run.py --workload uncertainty --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it boots the daemon binary several times, primes it,
// drives one seeded closed loop over a keep-alive loopback connection for
// --seconds of one-second windows free of hypervisor steal, checks every
// answer against an in-process reference, and prints the end-to-end
// metrics. With --trace 1 it replays the seeded streams of the workloads
// --traced names in-process, through the daemon's handler and through the
// layer packages with every call a span, and prints the per-layer
// metrics. The last line of standard output is the result object; the
// line before it records the host, the jobs filesystem and the seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	daemon   string // accelwalld binary
	work     string // scratch directory for logs, job stores and traces
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced in-process replay with per-layer metrics")
	flag.StringVar(&cfg.daemon, "daemon", "", "accelwalld binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory")
	traced := flag.String("traced", "", "comma-separated workloads a --trace 1 run traces (default: --workload)")
	flag.Parse()
	// The client's own collections would add pauses to measured latencies;
	// its heap is small, so collect less often.
	debug.SetGCPercent(400)
	if cfg.daemon == "" || cfg.work == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --daemon, --work, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := runDir(cfg, trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var res *result
	if trace == 1 {
		names := []string{w.name}
		if *traced != "" {
			names = strings.Split(*traced, ",")
		}
		res, err = runTraced(cfg, names, dir)
	} else {
		res, err = runE2E(cfg, w, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err, "(logs in "+dir+")")
		os.Exit(1)
	}
	if res.Correct {
		// Logs and job stores are kept only for runs that went wrong.
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: logs in", dir)
	}
	info := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": trace,
		"host": hostInfo(), "jobs_fs": fsType(cfg.work),
	}
	line, _ := json.Marshal(map[string]any{"run": info})
	fmt.Println(string(line))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// hostInfo records what a reading depends on.
func hostInfo() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpus": runtime.NumCPU(), "cpu_model": model,
		"go_version": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
	}
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runDir returns a fresh directory under the scratch directory for one
// run's access logs and job stores.
func runDir(cfg config, trace int) (string, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-trace%d-%d", cfg.workload, cfg.seed, trace, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
