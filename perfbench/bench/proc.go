package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running mediator process.
type proc struct {
	cmd       *exec.Cmd
	data, ctl string
	stderr    *os.File
	exited    chan error
	ctlClient *http.Client
}

// spawn starts the mediator binary for w over rels and waits for its
// ready line.
func spawn(bin string, w Workload, rels *Releases, dir string, trace bool) (*proc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := append([]string{"-workload", w.Name, "-dir", dir, "-trace=" + strconv.FormatBool(trace)}, rels.Args()...)
	cmd := exec.Command(bin, args...)
	// The mediator dies with the driver, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := os.OpenFile(filepath.Join(dir, "mediator.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		stderr.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		stderr.Close()
		return nil, fmt.Errorf("starting mediator: %w", err)
	}
	p := &proc{cmd: cmd, stderr: stderr, exited: make(chan error, 1),
		ctlClient: &http.Client{Timeout: 30 * time.Second}}
	ready := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(out).ReadString('\n')
		ready <- line
		_, _ = io.Copy(io.Discard, out)
		p.exited <- cmd.Wait()
	}()
	select {
	case line := <-ready:
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "ready" {
			p.kill()
			return nil, fmt.Errorf("mediator did not start (see %s)", stderr.Name())
		}
		p.data, p.ctl = f[1], f[2]
		return p, nil
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("mediator not ready after 60 s")
	}
}

func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
	p.stderr.Close()
}

// stop drains the mediator with SIGTERM and waits for it to exit.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return err
	}
	select {
	case err := <-p.exited:
		p.stderr.Close()
		if err != nil {
			return fmt.Errorf("mediator exit: %w (see %s)", err, p.stderr.Name())
		}
		return nil
	case <-time.After(20 * time.Second):
		p.kill()
		return fmt.Errorf("mediator did not drain in 20 s")
	}
}

func (p *proc) get(path string) ([]byte, error) {
	resp, err := p.ctlClient.Get("http://" + p.ctl + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("control %s: %s: %s", path, resp.Status, b)
	}
	return b, nil
}

func (p *proc) stats(posterior bool) (Stats, error) {
	path := "/stats"
	if posterior {
		path += "?posterior=1"
	}
	var st Stats
	b, err := p.get(path)
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

func (p *proc) spans() ([]Span, error) {
	b, err := p.get("/spans")
	if err != nil {
		return nil, err
	}
	return ReadSpans(b), nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 10 * time.Millisecond

// cpu returns the process's user+sys CPU time from /proc/<pid>/stat.
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat")
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns VmHWM, the process's peak resident set, in MiB.
func (p *proc) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM")
}
