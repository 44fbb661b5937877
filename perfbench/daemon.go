package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/schedd"
)

// daemon is a schedd child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	pid    int
	client *http.Client
	piped  sync.WaitGroup // stdout and stderr readers

	mu   sync.Mutex
	logs map[string]logLine // request log lines by request name
}

// logLine is the part of the daemon's per-request log line the benchmark
// uses; the durations are whole milliseconds, as logged.
type logLine struct {
	queueWait, engineWait, stream int64
}

// startDaemon starts schedd with args and waits until /readyz answers.
func startDaemon(path string, args ...string) (*daemon, error) {
	d := &daemon{logs: make(map[string]logLine)}
	d.cmd = exec.Command(path, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// Should this process die without running stop, the kernel kills the
	// daemon with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting schedd: %w", err)
	}
	d.pid = d.cmd.Process.Pid
	d.piped.Add(2)
	go d.readLogs(stderr)
	addr := make(chan string, 1)
	go func() {
		defer d.piped.Done()
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			addr <- strings.TrimPrefix(sc.Text(), "listening on ")
		}
		close(addr)
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("schedd exited before listening")
		}
		d.addr = a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("schedd did not announce its address")
	}
	// Any one call, the largest request included, takes well under a
	// second; the timeout only bounds a hung daemon.
	d.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.url("/readyz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("schedd not ready after 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// readLogs keeps the per-request log lines of the daemon's stderr.
func (d *daemon) readLogs(r io.Reader) {
	defer d.piped.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		kv := parseLogLine(sc.Text())
		if kv["msg"] != "schedd: request" {
			continue
		}
		var ll logLine
		ll.queueWait, _ = strconv.ParseInt(kv["queue_wait_ms"], 10, 64)
		ll.engineWait, _ = strconv.ParseInt(kv["engine_wait_ms"], 10, 64)
		ll.stream, _ = strconv.ParseInt(kv["stream_ms"], 10, 64)
		d.mu.Lock()
		d.logs[kv["name"]] = ll
		d.mu.Unlock()
	}
	// Past an over-long line the scanner stops; keep draining so the
	// daemon never blocks on a full pipe.
	_, _ = io.Copy(io.Discard, r)
}

// logFor returns the log line of the request named name.
func (d *daemon) logFor(name string) (logLine, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ll, ok := d.logs[name]
	return ll, ok
}

// awaitLogs waits up to a second for the log lines of the named requests,
// which the daemon writes after a response's last byte.
func (d *daemon) awaitLogs(names []string) {
	deadline := time.Now().Add(time.Second)
	for _, n := range names {
		for {
			if _, ok := d.logFor(n); ok || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// parseLogLine splits a log/slog text-handler line into its key=value
// pairs, unquoting quoted values.
func parseLogLine(line string) map[string]string {
	kv := make(map[string]string)
	for line != "" {
		line = strings.TrimLeft(line, " ")
		eq := strings.IndexByte(line, '=')
		if eq <= 0 {
			break
		}
		key := line[:eq]
		line = line[eq+1:]
		var val string
		if strings.HasPrefix(line, `"`) {
			q, err := strconv.QuotedPrefix(line)
			if err != nil {
				break
			}
			line = line[len(q):]
			val, _ = strconv.Unquote(q)
		} else if sp := strings.IndexByte(line, ' '); sp >= 0 {
			val, line = line[:sp], line[sp:]
		} else {
			val, line = line, ""
		}
		kv[key] = val
	}
	return kv
}

// statz is the daemon's /statz document.
type statz struct {
	Broker  schedd.BrokerStats  `json:"broker"`
	Serving schedd.ServingStats `json:"serving"`
	Journal schedd.JournalStats `json:"journal"`
}

// parseStatz decodes a /statz body.
func parseStatz(r io.Reader) (statz, error) {
	var s statz
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return statz{}, fmt.Errorf("decoding /statz: %w", err)
	}
	return s, nil
}

// statz fetches /statz.
func (d *daemon) statz() (statz, error) {
	resp, err := d.client.Get(d.url("/statz"))
	if err != nil {
		return statz{}, err
	}
	defer resp.Body.Close()
	return parseStatz(resp.Body)
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// waits until the process and its pipe readers have ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.piped.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	_ = d.cmd.Wait()
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
}

// post sends one request and reads its response; it returns the time of
// the first body byte, the body and the X-Schedd-Io trailer.
func (d *daemon) post(ctx context.Context, url, contentType string, body []byte, buf []byte) (time.Time, []byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return time.Time{}, nil, "", err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := d.client.Do(req)
	if err != nil {
		return time.Time{}, nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return time.Time{}, nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	buf = buf[:0]
	var first time.Time
	chunk := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(chunk)
		if n > 0 && first.IsZero() {
			first = time.Now()
		}
		buf = append(buf, chunk[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return first, buf, "", err
		}
	}
	if e := resp.Trailer.Get("X-Schedd-Error"); e != "" {
		return first, buf, "", fmt.Errorf("daemon error: %s", e)
	}
	return first, buf, resp.Trailer.Get("X-Schedd-Io"), nil
}
