package dist

import (
	"context"
	"encoding/json"
)

// Local returns the in-process Transport to c for a worker named worker:
// each call goes straight to the coordinator's methods. Lease waits for
// work exactly as POST /v1/leases does. The one difference from the HTTP
// Client is that each grant carries a signal that stops its execution
// the moment the coordinator drops the lease (Abandon, expiry, Close)
// instead of at the next renew.
func (c *Coordinator) Local(worker string) Transport {
	return local{c: c, worker: worker}
}

type local struct {
	c      *Coordinator
	worker string
}

func (l local) Lease(ctx context.Context) (*Grant, error) {
	return l.c.Lease(ctx, l.worker)
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
