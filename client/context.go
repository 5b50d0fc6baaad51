package client

import (
	"context"

	"repro/wire"
)

// wait blocks until call completes or ctx ends. A context cut abandons the
// call — it fails with ctx.Err() and its late response, if one ever
// arrives, is discarded — but the connection itself stays up, exactly like
// a CallTimeout expiry. A ctx that can never end (context.Background) goes
// straight to Wait, so the call never makes its Done channel.
func (c *Conn) wait(ctx context.Context, call *Call) error {
	done := ctx.Done()
	if done == nil {
		return call.Wait()
	}
	select {
	case <-call.Done():
	case <-done:
		c.fail(call, ctx.Err())
	}
	return call.Wait()
}

// GetContext is Get bounded by ctx.
func (c *Conn) GetContext(ctx context.Context, key uint64) (uint64, bool, error) {
	return u64Val(c.do(ctx, &wire.Request{Op: wire.OpGet, Key: key}))
}

// PutContext is Put bounded by ctx. A ctx cut leaves the write's outcome
// unknown: the request may still reach the server and be applied.
func (c *Conn) PutContext(ctx context.Context, key, val uint64) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpPut, Key: key, Val: val})
	return err
}

// DeleteContext is Delete bounded by ctx (same unknown-outcome caveat as
// PutContext).
func (c *Conn) DeleteContext(ctx context.Context, key uint64) (bool, error) {
	return found(c.do(ctx, &wire.Request{Op: wire.OpDelete, Key: key}))
}

// ScanContext is Scan bounded by ctx.
func (c *Conn) ScanContext(ctx context.Context, lo, hi uint64, max int) ([]KV, error) {
	call, err := c.do(ctx, &wire.Request{Op: wire.OpScan, Lo: lo, Hi: hi, Max: scanMax(max)})
	return call.Resp.Pairs, err
}

// GetBytesContext is GetBytes bounded by ctx.
func (c *Conn) GetBytesContext(ctx context.Context, key uint64) ([]byte, bool, error) {
	return bytesVal(c.do(ctx, &wire.Request{Op: wire.OpGetV, Key: key}))
}

// PutBytesContext is PutBytes bounded by ctx (same unknown-outcome caveat
// as PutContext).
func (c *Conn) PutBytesContext(ctx context.Context, key uint64, val []byte) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpPutV, Key: key, VVal: val})
	return err
}

// ScanBytesContext is ScanBytes bounded by ctx.
func (c *Conn) ScanBytesContext(ctx context.Context, lo, hi uint64, max int) ([]VKV, error) {
	call, err := c.do(ctx, &wire.Request{Op: wire.OpScanV, Lo: lo, Hi: hi, Max: scanMax(max)})
	return call.Resp.VPairs, err
}

// StatsContext is Stats bounded by ctx.
func (c *Conn) StatsContext(ctx context.Context) (wire.Stats, error) {
	call, err := c.do(ctx, &wire.Request{Op: wire.OpStats})
	return call.Resp.Stats, err
}
