package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// heldOutSeeds are never used while tuning the benchmark or a change; a
// claimed gain is re-checked on them (choosing-metrics guide §6.3).
var heldOutSeeds = []uint64{9001, 9002}

// provenance describes the host and the source a result came from.
func provenance(root, dataDir string, seed uint64, workload string, trace int) map[string]any {
	return map[string]any{
		"workload":       workload,
		"seed":           seed,
		"held_out_seeds": heldOutSeeds,
		"trace":          trace,
		"cpus":           runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"kernel":         kernel(),
		"data_dir_fs":    fsType(dataDir),
		"commit":         commit(root),
		"source_sha256":  sourceDigest(root),
	}
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	str := func(b [65]int8) string {
		var sb strings.Builder
		for _, c := range b {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		return sb.String()
	}
	return str(u.Sysname) + " " + str(u.Release) + " " + str(u.Machine)
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit resolves HEAD when the checkout is a git work tree, without
// running git; a plain source tree reports "none".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unresolved " + ref
	}
	return strings.TrimSpace(string(id))
}

// sourceDigest hashes every Go source and module file of the checkout, so a
// result names the code it measured even where there is no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTicks are time counters from /proc/stat, of one vCPU or summed over
// all of them: time spent running, time the hypervisor gave to other
// tenants while the vCPU wanted to run (steal), and all time.
type cpuTicks struct{ busy, steal, total uint64 }

// hostTicks holds /proc/stat's aggregate line and one entry per vCPU.
type hostTicks struct {
	all  cpuTicks
	cpus []cpuTicks
}

// clockTicks is USER_HZ, the unit of /proc/stat: 1/100 s on Linux.
const clockTicks = 100

func readTicks() hostTicks {
	var t hostTicks
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "cpu "):
			t.all = parseTicks(line)
		case strings.HasPrefix(line, "cpu"):
			t.cpus = append(t.cpus, parseTicks(line))
		}
	}
	return t
}

// parseTicks reads one "cpu" line of /proc/stat.
func parseTicks(line string) cpuTicks {
	var t cpuTicks
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return t
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:min(len(fields), 9)] {
		var v uint64
		fmt.Sscan(f, &v)
		t.total += v
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.steal = v
		default:
			t.busy += v
		}
	}
	return t
}

// stolenSeconds is the time the hypervisor took between t0 and t1 from the
// work the vCPUs were doing: each vCPU's stolen time, averaged with the
// time it wanted to run (ran + stolen) as weight. Work on one vCPU loses
// that vCPU's stolen time; work spread evenly over all of them loses their
// average; a vCPU waiting idle is not stolen from and weighs nothing, so
// time spent waiting on the disk is not taken off.
func stolenSeconds(t0, t1 hostTicks) float64 {
	var sum, weight float64
	for i := range min(len(t0.cpus), len(t1.cpus)) {
		steal := float64(t1.cpus[i].steal - t0.cpus[i].steal)
		wanted := float64(t1.cpus[i].busy-t0.cpus[i].busy) + steal
		sum += steal * wanted
		weight += wanted
	}
	if weight == 0 {
		return 0
	}
	return sum / weight / clockTicks
}

// stealShare is the share of the host's CPU time stolen since t0.
func stealShare(t0 hostTicks) float64 {
	t := readTicks().all
	if t.total <= t0.all.total {
		return 0
	}
	return float64(t.steal-t0.all.steal) / float64(t.total-t0.all.total)
}
