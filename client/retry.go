package client

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"syscall"
	"time"

	"repro/wire"
)

// Errors classifying degraded-server and deadline failures. Both carry the
// server's message when one was attached; match with errors.Is.
var (
	// ErrBusy reports wire.StatusBusy: the server shed the request at
	// admission because its global in-flight cap was reached. Nothing was
	// executed — any request, including a write, is safe to retry after
	// backing off.
	ErrBusy = errors.New("client: server busy, retry later")
	// ErrNoSpace reports wire.StatusNoSpace: the store refused a write
	// because its persistent pool can no longer guarantee GC headroom.
	// Not retryable on a timer — the condition clears only after deletes
	// and compaction free space.
	ErrNoSpace = errors.New("client: store out of space on server")
	// ErrCallTimeout reports a call that outlived Options.CallTimeout.
	// The connection survives; the call's outcome on the server is
	// unknown.
	ErrCallTimeout = errors.New("client: call timed out")
	// ErrTxnIncomplete reports wire.StatusTxnIncomplete: a CommitTxn
	// crossed its durable commit point on the server but failed while
	// applying. The transaction IS committed — the server's store replays
	// it to completion when it reopens — but its writes may not be
	// visible until then, and the store refuses further writes in the
	// meantime. Never retry it: reissuing a committed write-set would
	// double-apply.
	ErrTxnIncomplete = errors.New("client: transaction committed but not yet applied; server store requires reopen")
)

// Retryable reports whether err is worth retrying — on a backoff for
// ErrBusy, or on a fresh (possibly redialed) connection for transport
// failures. The classification:
//
//   - ErrBusy: yes. The server explicitly invited a retry; it executed
//     nothing.
//   - ErrCallTimeout: yes, for idempotent operations. The outcome is
//     unknown, so a write may already be applied; reissuing one is the
//     caller's call.
//   - Connection failures (ErrConnClosed, resets, EOFs, net timeouts,
//     corrupt frames): yes. The conversation died, not the request; a
//     fresh connection gets a fresh verdict.
//   - ErrNoSpace, ErrStoreClosed, *RemoteError: no. These are the server
//     answering clearly; asking again changes nothing until an operator,
//     GC, or the application (deletes) intervenes.
//   - ErrTxnIncomplete: no, emphatically. The transaction is already
//     committed server-side and will apply at the next reopen; a retry
//     would queue the same write-set twice.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, ErrBusy), errors.Is(err, ErrCallTimeout), errors.Is(err, ErrConnClosed):
		return true
	case errors.Is(err, ErrNoSpace), errors.Is(err, ErrStoreClosed), errors.Is(err, ErrTxnIncomplete):
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	// Transport-level: the terminal error a dying connection stamped onto
	// its calls. Corrupt frames count — the damage was on the wire, and a
	// reconnect gets a clean stream.
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, wire.ErrMalformed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// backoff returns the pause before retry attempt (0-based): exponential
// from base, capped at max, with ±25% jitter so a fleet of clients kicked
// loose by the same fault does not reconverge in lockstep.
func backoff(attempt int, base, max time.Duration) time.Duration {
	d := base << uint(attempt)
	if d > max || d <= 0 { // <= 0: shift overflow
		d = max
	}
	jitter := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	return d + jitter
}
