package dist

import (
	"context"
	"encoding/json"
	"time"
)

// Local returns the in-process Transport to c for a worker named worker:
// each call goes straight to the coordinator's methods. It differs from
// the HTTP Client in the two ways a worker sharing the coordinator's
// process can afford: Lease waits until a job is queued, so an idle slot
// takes new work at once instead of after a poll interval, and each grant
// carries a signal that stops its execution the moment the coordinator
// drops the lease (Abandon, expiry, Close) instead of at the next renew.
func (c *Coordinator) Local(worker string) Transport {
	return local{c: c, worker: worker}
}

type local struct {
	c      *Coordinator
	worker string
}

func (l local) Lease(ctx context.Context) (*Grant, error) {
	// Asking again once per TTL keeps an idle worker inside the liveness
	// window, as a polling remote worker stays.
	idle := time.NewTicker(l.c.cfg.TTL)
	defer idle.Stop()
	for {
		g, wake, err := l.c.leaseOrWait(l.worker)
		if g != nil || err != nil {
			return g, err
		}
		select {
		case <-wake:
		case <-idle.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func (l local) Renew(_ context.Context, leaseID string) error {
	return l.c.Renew(leaseID, l.worker)
}

func (l local) Progress(_ context.Context, leaseID string, data json.RawMessage) error {
	return l.c.Progress(leaseID, l.worker, data)
}

func (l local) Complete(_ context.Context, leaseID string, req CompleteRequest) error {
	req.Worker = l.worker
	return l.c.Complete(leaseID, req)
}
