package farm

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestCancelQueuedJob: canceling a job that never started running — a
// dedup follower waiting on its leader — completes it Canceled
// immediately, and the leader's later completion leaves it canceled.
func TestCancelQueuedJob(t *testing.T) {
	f := New(Config{})
	defer f.Close(context.Background())

	release := make(chan struct{})
	blocker, err := f.Submit(Task{
		Key:   "k",
		Label: "blocker",
		Run: func(context.Context) (any, error) {
			<-release
			return "done", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := f.Submit(Task{
		Key:   "k",
		Label: "queued",
		Run:   func(context.Context) (any, error) { return "never", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := queued.State(); s != Queued {
		t.Fatalf("follower state = %v, want Queued", s)
	}

	if !f.Cancel(queued.ID()) {
		t.Fatal("Cancel(queued) = false, want true")
	}
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job Wait err = %v, want context.Canceled", err)
	}
	if s := queued.State(); s != Canceled {
		t.Fatalf("canceled job state = %v, want Canceled", s)
	}
	// Second cancel of a terminal job is a no-op.
	if f.Cancel(queued.ID()) {
		t.Fatal("Cancel of terminal job = true, want false")
	}

	close(release)
	if v, err := blocker.Wait(context.Background()); err != nil || v != "done" {
		t.Fatalf("blocker = %v, %v", v, err)
	}
	if s := queued.State(); s != Canceled {
		t.Fatalf("canceled follower state = %v after its leader finished, want Canceled", s)
	}
	if c := f.Counters(); c.Canceled != 1 || c.Done != 1 {
		t.Fatalf("counters canceled=%d done=%d, want 1/1", c.Canceled, c.Done)
	}
}

// TestCancelRunningJob: canceling a running job fires its context; when
// the Run returns the error, the job completes Canceled (not Failed).
func TestCancelRunningJob(t *testing.T) {
	f := New(Config{})
	defer f.Close(context.Background())

	started := make(chan struct{})
	j, err := f.Submit(Task{
		Label: "running",
		Run: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !f.Cancel(j.ID()) {
		t.Fatal("Cancel(running) = false, want true")
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	if s := j.State(); s != Canceled {
		t.Fatalf("state = %v, want Canceled", s)
	}
	if c := f.Counters(); c.Canceled != 1 || c.Failed != 0 {
		t.Fatalf("counters canceled=%d failed=%d, want 1/0", c.Canceled, c.Failed)
	}
}

// TestCancelDoesNotRetry: a canceled job settles Canceled after its one
// run; nothing runs it again.
func TestCancelDoesNotRetry(t *testing.T) {
	f := New(Config{})
	defer f.Close(context.Background())

	started := make(chan struct{})
	var runs atomic.Int32
	j, err := f.Submit(Task{
		Label: "cancel-no-retry",
		Run: func(ctx context.Context) (any, error) {
			runs.Add(1)
			close(started)
			<-ctx.Done()
			return nil, errors.New("transient-looking failure")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !f.Cancel(j.ID()) {
		t.Fatal("Cancel = false, want true")
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("canceled job reported no error")
	}
	if s := j.State(); s != Canceled {
		t.Fatalf("state = %v, want Canceled", s)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("runs = %d, want 1 (canceled jobs must not run again)", n)
	}
}

// TestCancelUnknownJob: unknown ids are rejected without effect.
func TestCancelUnknownJob(t *testing.T) {
	f := New(Config{})
	defer f.Close(context.Background())
	if f.Cancel("job-999999") {
		t.Fatal("Cancel(unknown) = true, want false")
	}
}

// TestCancelCompletedJobKeepsResult: canceling after completion neither
// flips the state nor clobbers the value.
func TestCancelCompletedJobKeepsResult(t *testing.T) {
	f := New(Config{})
	defer f.Close(context.Background())

	j, err := f.Submit(Task{
		Label: "done",
		Run:   func(context.Context) (any, error) { return 42, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.Cancel(j.ID()) {
		t.Fatal("Cancel(done) = true, want false")
	}
	if v, err := j.Result(); err != nil || v != 42 {
		t.Fatalf("result = %v, %v after cancel attempt", v, err)
	}
}
