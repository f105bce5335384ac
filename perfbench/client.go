package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection. Requests are written as
// pre-serialised bytes and responses parsed with http.ReadResponse, so
// the client adds no goroutines and no per-request set-up to the loop.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) Close() error { return c.c.Close() }

// do sends one request and returns the status and a copy of the body.
func (c *conn) do(raw []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(raw); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		return resp.StatusCode, body, errors.New("server closed the keep-alive connection")
	}
	return resp.StatusCode, body, nil
}

func getRaw(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: accelwalld\r\n\r\n")
}

// reply is what one op returned. For a job it is the final GET
// /v1/jobs/{id} body, after the SSE stream delivered a terminal frame.
type reply struct {
	status int
	body   []byte
	err    error
}

// runOp performs one op and returns its reply.
func (c *conn) runOp(o *op) reply {
	if o.job == nil {
		st, body, err := c.do(o.raw)
		return reply{st, body, err}
	}
	st, body, err := c.do(o.raw)
	if err != nil || st != http.StatusAccepted {
		return reply{st, body, err}
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		return reply{st, body, fmt.Errorf("job submit reply %q", body)}
	}
	st, events, err := c.do(getRaw("/v1/jobs/" + sub.ID + "/events"))
	if err != nil || st != http.StatusOK {
		return reply{st, events, err}
	}
	if state := lastSSEState(events); state != "done" {
		return reply{st, events, fmt.Errorf("job %s: SSE terminal state %q", sub.ID, state)}
	}
	st, body, err = c.do(getRaw("/v1/jobs/" + sub.ID))
	return reply{st, body, err}
}

// lastSSEState returns the state field of the stream's last data frame.
func lastSSEState(stream []byte) string {
	var state string
	for _, line := range bytes.Split(stream, []byte("\n")) {
		if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			var f struct{ State string }
			if json.Unmarshal(data, &f) == nil {
				state = f.State
			}
		}
	}
	return state
}

// daemon is one accelwalld process.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	start time.Time
	exit  chan error
	log   *os.File
}

// startDaemon execs bin on a free loopback port with the access log in
// logPath. extra holds flags beyond -addr.
func startDaemon(bin, logPath string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If this process dies, the daemon dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, addr: addr, exit: make(chan error, 1), log: logf}
	d.start = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { d.exit <- cmd.Wait() }()
	return d, nil
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitReady polls GET /readyz until it answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exit:
			d.exit <- err
			return fmt.Errorf("daemon exited before ready: %v", err)
		default:
		}
		if c, err := dial(d.addr); err == nil {
			st, _, err := c.do(getRaw("/readyz"))
			c.Close()
			if err == nil && st == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("daemon not ready after %v", timeout)
}

// cpuTime is the daemon's user+sys CPU time so far, from /proc/<pid>/stat
// (fields 14 and 15, in USER_HZ ticks, which Linux fixes at 100 per s).
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// rss is the daemon's resident size (VmRSS) in MB.
func (d *daemon) rss() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// stop drains the daemon with SIGTERM, escalating to SIGKILL after 20 s,
// and waits for it to exit. A clean drain exits 0.
func (d *daemon) stop() error {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return <-d.exit
	}
	select {
	case err := <-d.exit:
		return err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exit
		return errors.New("daemon did not drain within 20s; killed")
	}
}

// scrape returns the daemon's /v1/metrics tree.
func scrape(c *conn) (map[string]any, error) {
	st, body, err := c.do(getRaw("/v1/metrics"))
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("/v1/metrics answered %d", st)
	}
	var m map[string]any
	return m, json.Unmarshal(body, &m)
}
