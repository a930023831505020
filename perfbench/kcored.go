package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one kcored child process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once Wait has returned
	// setup is exec until /healthz and a first /degeneracy answered.
	setup float64
	// startCPU is kcored's CPU time at readiness in seconds: open,
	// SemiCore*, and per backend the partition build or the initial
	// checkpoint. Unlike wall time, a shared machine's steal does not
	// inflate it.
	startCPU float64
	// startReads is the server's block-read count at readiness: the
	// I/O of bringing the decomposition up.
	startReads int64
}

// startServer execs kcored on graph with extra flags and waits until it
// answers. The child dies with this process (Pdeathsig), so no error
// path leaves it running.
func startServer(bin, graph string, flags []string) (*server, error) {
	args := append([]string{"-graph", graph, "-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(filepath.Join(bin, "kcored"), args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start kcored: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	lines := make(chan string, 16) // a handful of start-up lines; later ones are dropped below
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		io.Copy(io.Discard, stdout) //nolint:errcheck // drain until exit
		close(lines)
	}()
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is irrelevant once measured
		close(s.done)
	}()
	timeout := time.After(120 * time.Second)
	for s.url == "" {
		select {
		case l, ok := <-lines:
			if !ok {
				s.stop()
				return nil, fmt.Errorf("kcored exited before listening")
			}
			if _, rest, ok := strings.Cut(l, "listening on "); ok {
				s.url = strings.Fields(rest)[0]
			}
		case <-timeout:
			s.stop()
			return nil, fmt.Errorf("kcored did not listen within 120s")
		}
	}
	c := &http.Client{Timeout: 30 * time.Second}
	for _, route := range []string{"/healthz", "/degeneracy"} {
		resp, err := c.Get(s.url + route)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only readiness matters
			resp.Body.Close()
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			s.stop()
			return nil, fmt.Errorf("kcored not ready at %s: %v", route, err)
		}
	}
	s.setup = time.Since(start).Seconds()
	s.startCPU = s.cpuUs() / 1e6
	st, err := getStats(c, s.url)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.startReads = st.IO.Reads
	return s, nil
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Serve struct {
		Rejected    int64 `json:"rejected"`
		Annihilated int64 `json:"annihilated_updates"`
	} `json:"serve"`
	IO struct {
		Reads int64 `json:"Reads"`
	} `json:"io"`
}

func getStats(c *http.Client, url string) (*serverStats, error) {
	var st serverStats
	if err := getJSON(c, url+"/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// peakRSSMiB reads the child's resident-set high-water mark.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", s.cmd.Process.Pid)
}

// cpuUs reads the child's user plus system CPU time in microseconds
// (clock ticks of 10ms; over a rung of seconds that is well under 1%).
func (s *server) cpuUs() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return math.NaN()
	}
	st := string(b)
	f := strings.Fields(st[strings.LastIndexByte(st, ')')+2:])
	ut, err1 := strconv.ParseFloat(f[11], 64)
	sy, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return math.NaN()
	}
	return (ut + sy) * 1e6 / clockTicks
}

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// stop kills the child and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-s.done
}
