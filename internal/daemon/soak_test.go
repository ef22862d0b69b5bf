package daemon

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
)

// The soak harness compresses hours of operational churn — checkpoint,
// kill, resume, reload — into a time budget. It is off by default
// (zero budget skips) and wired into `make soak` (a minute, under
// -race) and `make check` (a few seconds):
//
//	go test -race -run TestSoakChurn -soak 60s ./internal/daemon/
//
// Every cycle replays a two-agent daemon to completion through
// repeated mid-replay kills, checkpoint-truncated restarts and live
// reload churn on agent "churn", then requires agent "steady" — which
// no reload ever touches — to end with a state file byte-identical to
// an uninterrupted run's. That is the PR's headline invariant: resume
// equivalence stays byte-exact for untouched agents, no matter how the
// process around them is killed, restarted and reconfigured.
var soakBudget = flag.Duration("soak", 0, "soak test time budget (0 = skip)")

func TestSoakChurn(t *testing.T) {
	if *soakBudget <= 0 {
		t.Skip("soak disabled; run with -soak=30s (see `make soak`)")
	}
	dir := t.TempDir()
	inPath := saveTestTrace(t, dir, true)
	rng := rand.New(rand.NewSource(1))

	// Control: agent "steady"'s spec, run once, uninterrupted.
	steadySpec := func(state string) AgentSpec {
		return AgentSpec{
			Name: "steady", Input: inPath, State: state,
			TrackSources: true, KeyBits: 8, MaxSources: 64,
			Checkpoint: Duration(20 * time.Millisecond),
		}
	}
	ctrlPath := filepath.Join(dir, "ctrl.json")
	ctrl, _, err := BuildAgent(steadySpec(ctrlPath), BuildEnv{ProcName: "soak", Log: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Replay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SaveState(ctrlPath); err != nil {
		t.Fatal(err)
	}
	ctrl.Close()
	want, err := os.ReadFile(ctrlPath)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	cycles, kills, reloads, rewinds := 0, 0, 0, 0
	for time.Since(start) < *soakBudget {
		cycles++
		cdir := t.TempDir()
		steadyState := filepath.Join(cdir, "steady.json")
		churnState := filepath.Join(cdir, "churn.json")
		base := steadySpec(steadyState)
		churn := AgentSpec{
			Name: "churn", Input: inPath, State: churnState,
			Checkpoint: Duration(15 * time.Millisecond),
			OnMismatch: PolicyMigrate,
		}

		// Kill/resume until steady's replay completes. The replay is
		// paced (~300ms of wall clock for the whole trace) so kills
		// land mid-flight.
		for attempt := 0; ; attempt++ {
			if attempt > 500 {
				t.Fatal("soak cycle never completed")
			}
			var log syncBuf
			s, err := NewSupervisor([]AgentSpec{base, churn},
				SupervisorOptions{ProcName: "soak", Log: &log, Speed: 2000})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			runErr := make(chan error, 1)
			go func() { runErr <- s.Run(ctx, "127.0.0.1:0") }()
			for bannerRE.FindStringSubmatch(log.String()) == nil {
				time.Sleep(time.Millisecond)
			}

			// Live churn while the replay runs: flip churn's threshold
			// (compatible, state carried in place) and sometimes its
			// t0 (incompatible, migrated under its policy) — steady is
			// never part of any diff. A mid-run copy of steady's last
			// periodic checkpoint doubles as a crash artifact below.
			var staleCheckpoint []byte
			deadline := time.Now().Add(time.Duration(20+rng.Intn(120)) * time.Millisecond)
			for time.Now().Before(deadline) {
				time.Sleep(time.Duration(5+rng.Intn(20)) * time.Millisecond)
				next := churn
				switch rng.Intn(3) {
				case 0:
					next.Threshold = []float64{0, 1.5, 3, 1000}[rng.Intn(4)]
				case 1:
					next.T0 = Duration([]time.Duration{0, 40 * time.Second}[rng.Intn(2)])
				default:
					// Spec unchanged: the reload still walks the diff.
				}
				if _, err := s.Reload([]AgentSpec{base, next}); err != nil {
					t.Fatal(err)
				}
				churn = next
				reloads++
				if b, err := os.ReadFile(steadyState); err == nil {
					staleCheckpoint = b
				}
			}

			done := s.get("steady").d.Status().ReplayDone
			cancel()
			if err := <-runErr; err != nil && !errors.Is(err, context.Canceled) {
				t.Fatal(err)
			}
			if done {
				break
			}
			kills++

			// Sometimes emulate a hard crash: throw away the graceful
			// shutdown snapshot and restart from the older periodic
			// checkpoint captured mid-run. Resume equivalence must
			// hold from either file.
			if len(staleCheckpoint) > 0 && rng.Intn(3) == 0 {
				if err := os.WriteFile(steadyState, staleCheckpoint, 0o644); err != nil {
					t.Fatal(err)
				}
				rewinds++
			}
		}

		got, err := os.ReadFile(steadyState)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: steady agent's final state differs from uninterrupted run (%d kills, %d reloads, %d rewinds so far)",
				cycles, kills, reloads, rewinds)
		}
		// And the churned agent, whatever parameters it ended on, must
		// hold a restorable state — churn may rewrite it, never corrupt
		// it.
		if st, err := ReadStateFile(churnState); err != nil {
			t.Fatalf("cycle %d: churned agent state unreadable: %v", cycles, err)
		} else if _, err := core.RestoreAgent(st.Snapshot); err != nil {
			t.Fatalf("cycle %d: churned agent state unrestorable: %v", cycles, err)
		}
	}
	t.Logf("soak: %d cycles, %d mid-replay kills, %d reloads, %d checkpoint rewinds in %v",
		cycles, kills, reloads, rewinds, time.Since(start))
}
