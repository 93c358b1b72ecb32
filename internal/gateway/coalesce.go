package gateway

import (
	"context"
	"errors"
	"net/http"

	"vliwq/internal/cache"
)

// Request coalescing: N concurrent /compile requests for one exact
// canonical key collapse into a single dispatch — one ring walk, one
// backend HTTP request, one compile — and every caller relays the same
// answer. This is what stops a failover stampede: when the owner is slow or
// down, the first caller's ring walk (with its backoff and breaker dance)
// is the ONLY one in flight; concurrent callers for the key join it instead
// of each marching the ring and piling onto the surviving peer.
//
// The key is the EXACT canonical key, not the structural one: isomorphic
// but differently-named requests need differently-named response bytes, so
// they must each reach a backend (the same backend — Route hashes the
// structural key — where the service's structural cache collapses the
// actual compile).
//
// The singleflight is internal/cache's, the one the backends' cache layers
// use, with computes that never keep: the backends' caches are the memo,
// and the gateway only collapses concurrent demand.

// reply is one dispatch's outcome, relayed to every caller that shares it.
type reply struct {
	status int
	hdr    http.Header
	data   []byte
	err    error
}

// fate decides who else relays a dispatch's reply. Context errors and 504s
// are the leader's own deadline expiring: each waiting caller leads or
// joins a fresh dispatch under its own deadline (Retry) instead of
// inheriting a cancellation that was never its own. Every other reply is
// authoritative for the callers already waiting on it (Share).
func (r reply) fate() cache.Fate {
	if errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded) ||
		r.status == http.StatusGatewayTimeout {
		return cache.Retry
	}
	return cache.Share
}
