package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// proc is one serving process the benchmark started.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	err  error         // the Wait result, valid after done
	log  *os.File
}

// startProc starts binary name from binDir with args plus -addr on a free
// local port, logging to a file in logDir. The child is killed if the
// benchmark dies first.
func startProc(binDir, logDir, name string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	log, err := os.CreateTemp(logDir, name+"-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(binDir, name), append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: log}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to drain and exit, kills it if it has not within
// the grace period, and waits for it.
func (p *proc) stop() {
	select {
	case <-p.done:
	default:
		p.cmd.Process.Signal(syscall.SIGINT) //nolint:errcheck // it may have exited already
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill() //nolint:errcheck // best effort; Wait below reaps it
			<-p.done
		}
	}
	p.log.Close()
}

// pid returns the process ID as /proc names it.
func (p *proc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// tail returns the end of the process's log, for error messages.
func (p *proc) tail() string {
	b, err := os.ReadFile(p.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// freePort asks the kernel for an unused local TCP port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls p's /readyz until it answers 200 or the deadline passes.
func waitReady(ctx context.Context, c *http.Client, p *proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before ready: %v\n%s", p.name, p.err, p.tail())
		default:
		}
		resp, err := c.Get(p.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v: %v\n%s", p.name, timeout, err, p.tail())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// loadClient returns the HTTP client a workload's load goes through: at
// most conns connections to any one host.
func loadClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// getJSON fetches url into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{url: url, code: resp.StatusCode, body: string(body)}
	}
	return json.Unmarshal(body, v)
}

// statusError is a non-200 answer.
type statusError struct {
	url  string
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("GET %s: HTTP %d: %s", e.url, e.code, e.body)
}

// nodeStats is the subset of a pbiserve /stats answer the benchmark reads.
type nodeStats struct {
	Rejected int64 `json:"rejected"`
	Cache    struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Algorithms map[string]struct {
		Requests  int64 `json:"requests"`
		PageIO    int64 `json:"page_io"`
		VirtualUS int64 `json:"virtual_us"`
	} `json:"algorithms"`
}

// executions, pages and virtual time summed over the algorithms.
func (s nodeStats) totals() (execs, pages, virtualUS int64) {
	for _, a := range s.Algorithms {
		execs += a.Requests
		pages += a.PageIO
		virtualUS += a.VirtualUS
	}
	return
}

// routerStats is the subset of a pbirouter /stats answer the benchmark
// reads.
type routerStats struct {
	HedgeFires int64 `json:"hedge_fires"`
	HedgeWins  int64 `json:"hedge_wins"`
	Failovers  int64 `json:"failovers"`
	Cache      struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}
