package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// host fingerprints the machine a result was measured on; results are
// comparable only between equal fingerprints.
type host struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Clients     int    `json:"clients"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	Kernel      string `json:"kernel"`
	DataFS      string `json:"data_fs"`
	FlushPolicy string `json:"flush_policy"`
}

func fingerprint(dataDir string) host {
	h := host{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Clients:     clients(),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		DataFS:      fsType(dataDir),
		FlushPolicy: "one fsync per group-commit batch per WAL segment; checkpoint every 256 commits",
	}
	if k, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(k))
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// saveResult keeps every metric of the run with the host fingerprint
// under the work directory's results/.
func (b *bench) saveResult(h host, rep *report, trace int) error {
	dir := filepath.Join(b.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Seconds  float64                `json:"seconds"`
		Trace    int                    `json:"trace"`
		Host     host                   `json:"host"`
		Correct  bool                   `json:"correct"`
		Notes    []string               `json:"notes,omitempty"`
		Metrics  map[string]metricValue `json:"metrics"`
	}{b.w.name, b.seed, b.window.Seconds(), trace, h, rep.Correct, rep.notes, rep.Metrics}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", b.w.name, b.seed, trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
