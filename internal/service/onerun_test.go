package service

import (
	"bytes"
	"errors"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/spec"
)

// TestOneRunTemporaryState: a one-run service given no state dir
// journals into a temporary one and deletes it on exit; it refuses
// catalog submissions, answers lease calls with the outcome while it
// lingers, and delivers a result set byte-identical to a
// single-process run.
func TestOneRunTemporaryState(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	specJSON := selftestSpec(12, 0, "")
	sp, err := spec.Decode(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Build(sp, spec.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	one := NewOneRun(Config{Addr: "127.0.0.1:0", Token: testToken, Shards: 3, linger: 100 * time.Millisecond}, sp, "")
	out := make(chan error, 1)
	var rr *campaign.RunResult
	go func() {
		var err error
		rr, err = campaign.Run(built.Campaign, campaign.Options{Runner: one})
		out <- err
	}()
	select {
	case <-one.Ready():
	case err := <-out:
		t.Fatalf("one-run service exited before listening: %v", err)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil || len(entries) != 1 || !strings.HasPrefix(entries[0].Name(), "campaign-serve-") {
		t.Fatalf("temporary state dir not created under TMPDIR: %v %v", entries, err)
	}

	cl := NewClient(one.URL(), testToken)
	if _, err := cl.Submit(selftestSpec(4, 0, "intruder"), 0); err == nil || !strings.Contains(err.Error(), "one-run service") {
		t.Fatalf("one-run service accepted a catalog submission: %v", err)
	}

	var executed atomic.Int64
	w := startWorker(t, one.URL(), "w", t.TempDir(), &executed)
	if err := <-out; err != nil {
		t.Fatal(err)
	}
	if err := <-w; err != nil {
		t.Fatalf("worker did not exit cleanly on the run's outcome: %v", err)
	}
	if executed.Load() != 12 {
		t.Fatalf("executed %d trials, want 12", executed.Load())
	}
	_, want := singleProcessResults(t, specJSON)
	ref, _ := campaign.MarshalResults(want)
	got, _ := campaign.MarshalResults(rr.Results)
	if !bytes.Equal(got, ref) {
		t.Fatal("one-run results differ from the single-process run")
	}
	if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
		t.Fatalf("temporary state dir survived the run: %v", entries)
	}
	if st := one.Summary(); st.State != RunDone || st.Done != 12 {
		t.Fatalf("summary %+v", st)
	}
}

// TestOneRunNeedsToken: like any service, a one-run service refuses to
// start without a bearer token.
func TestOneRunNeedsToken(t *testing.T) {
	sp, err := spec.Decode(selftestSpec(4, 0, ""))
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Build(sp, spec.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	one := NewOneRun(Config{Addr: "127.0.0.1:0"}, sp, "")
	if _, err := campaign.Run(built.Campaign, campaign.Options{Runner: one}); err == nil || !strings.Contains(err.Error(), "token") {
		t.Fatalf("one-run service started without a token: %v", err)
	}
}

// TestSilentConnectionDropped: a client that connects and never sends
// its request headers is disconnected after readHeaderTimeout instead
// of holding a server goroutine forever.
func TestSilentConnectionDropped(t *testing.T) {
	t.Parallel()
	svc, stop := startService(t, Config{StateDir: t.TempDir()})
	defer stop()
	conn, err := net.Dial("tcp", strings.TrimPrefix(svc.URL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	buf := make([]byte, 512)
	for {
		if _, err = conn.Read(buf); err != nil {
			break
		}
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("silent connection still open after %v", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout-time.Second {
		t.Fatalf("silent connection dropped after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}
