package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what one bench process needs to run daemons: the indepd binary,
// a scratch directory inside the checkout, and the ports to hand out.
// Everything it creates is undone by close, on every exit path.
type env struct {
	root    string // repository root (holds go.mod and cmd/indepd)
	indepd  string // built binary
	scratch string // per-process directory for data dirs and logs
	port    int    // next port to hand out

	mu      sync.Mutex
	daemons []*daemon
}

// buildDir is where build outputs and run scratch live, inside the checkout
// and ignored by git.
const buildDir = ".bench_build"

// newEnv builds cmd/indepd once and prepares the scratch directory.
func newEnv(root string, basePort int) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "indepd", "main.go")); err != nil {
		return nil, fmt.Errorf("bench: %s is not the repository root: %w", root, err)
	}
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	e := &env{root: root, indepd: filepath.Join(bin, "indepd"), port: basePort}
	build := exec.Command("go", "build", "-o", e.indepd, "./cmd/indepd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: building cmd/indepd: %w\n%s", err, out)
	}
	e.scratch, err = os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	return e, nil
}

// killAll kills every daemon still running and waits for each.
func (e *env) killAll() {
	e.mu.Lock()
	ds := e.daemons
	e.daemons = nil
	e.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// close kills the daemons and removes the scratch directory.
func (e *env) close() {
	e.killAll()
	os.RemoveAll(e.scratch)
}

// dir returns a fresh data directory under the scratch directory.
func (e *env) dir(name string) (string, error) {
	return os.MkdirTemp(e.scratch, name+"-")
}

// daemon is one running indepd process.
type daemon struct {
	role string // "node", "shard" or "router"
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	log  *bytes.Buffer
	born time.Time

	done chan struct{} // closed when the process has been waited for
	werr error
	// stopping is set before bench kills the daemon itself; an exit seen
	// while it is unset is an early exit and fails the run.
	stopping bool
	mu       sync.Mutex
}

// start launches indepd on the next port with the benchmark schema. The
// port must be free: bench binds it first and refuses to run if it cannot,
// so a stray daemon from another run is never measured by mistake.
func (e *env) start(role string, args ...string) (*daemon, error) {
	port := e.port
	e.port++
	addr := "127.0.0.1:" + strconv.Itoa(port)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bench: port %d is in use: %w", port, err)
	}
	ln.Close()
	d := &daemon{role: role, base: "http://" + addr, log: new(bytes.Buffer), done: make(chan struct{})}
	full := append([]string{"-addr", addr, "-schema", schemaSrc, "-fds", fdSrc, "-loglevel", "warn", "-slow", "0"}, args...)
	d.cmd = exec.Command(e.indepd, full...)
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	// The daemon dies with bench even when bench is killed outright.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.born = time.Now()
	started := make(chan error)
	go func() {
		// Pdeathsig fires when the forking thread ends, so the thread is
		// pinned for as long as the child lives.
		runtime.LockOSThread()
		err := d.cmd.Start()
		started <- err
		if err != nil {
			return
		}
		d.werr = d.cmd.Wait()
		close(d.done)
	}()
	if err := <-started; err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.daemons = append(e.daemons, d)
	e.mu.Unlock()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// exited reports an early exit: the process ended though bench did not
// stop it.
func (d *daemon) exited() error {
	select {
	case <-d.done:
		d.mu.Lock()
		defer d.mu.Unlock()
		if !d.stopping {
			return fmt.Errorf("bench: %s daemon %s exited early: %v\n%s", d.role, d.base, d.werr, d.log.String())
		}
	default:
	}
	return nil
}

// kill sends SIGKILL and waits until the process has ended.
func (d *daemon) kill() {
	d.mu.Lock()
	d.stopping = true
	d.mu.Unlock()
	d.cmd.Process.Kill()
	<-d.done
}

// ready polls /readyz until it answers 200, returning the time since the
// process was started.
func (d *daemon) ready(ctx context.Context, cl *http.Client) (time.Duration, error) {
	for {
		if err := d.exited(); err != nil {
			return 0, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			return 0, err
		}
		resp, err := cl.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.born), nil
			}
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("bench: %s daemon %s never became ready: %w\n%s", d.role, d.base, ctx.Err(), d.log.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// cpu returns the CPU time the process has used so far: the on-CPU
// nanoseconds of all its threads from /proc/<pid>/task/*/schedstat. That is
// what utime+stime in /proc/<pid>/stat counts, without the 10 ms tick a few
// hundred short requests would drown in; stat is the fallback where the
// kernel keeps no schedstats.
func (d *daemon) cpu() (time.Duration, error) {
	base := "/proc/" + strconv.Itoa(d.pid())
	tasks, err := os.ReadDir(base + "/task")
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		data, err := os.ReadFile(base + "/task/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	if ns > 0 {
		return time.Duration(ns), nil
	}
	return d.cpuTicks()
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// Linux fixes it at 100 for every architecture Go runs on.
const clockTick = 100

// cpuTicks reads utime+stime from /proc/<pid>/stat.
func (d *daemon) cpuTicks() (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.pid()) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("bench: cannot parse /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bench: cannot parse /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// rssPeakMB returns the process's peak resident set (VmHWM) in MB.
func (d *daemon) rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(d.pid()) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}

// fsType names the filesystem holding path, from /proc/mounts.
func fsType(path string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// dirBytes sums the sizes of the regular files directly inside dir — a WAL
// data directory is flat.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
