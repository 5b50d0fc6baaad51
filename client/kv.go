package client

import (
	"context"

	"repro/wire"
)

// KKV is one byte-string key / byte-string value pair, aliased from the
// wire layer.
type KKV = wire.KKV

// GetKVAsync issues a pipelined GetK (byte-string-keyed Get).
func (c *Conn) GetKVAsync(key []byte) *Call {
	return c.start(&wire.Request{Op: wire.OpGetK, KKey: key})
}

// GetKV returns the value stored under the byte-string key on the server.
// Keys are 1..wire.MaxKey bytes. The returned slice is owned by the
// caller. Reading a prefix written through the uint64-keyed APIs fails
// with a *RemoteError.
func (c *Conn) GetKV(ctx context.Context, key []byte) ([]byte, bool, error) {
	return bytesVal(c.do(ctx, &wire.Request{Op: wire.OpGetK, KKey: key}))
}

// PutKVAsync issues a pipelined PutK (byte-string-keyed Put). key must be
// 1..wire.MaxKey bytes and val at most wire.MaxKValue.
func (c *Conn) PutKVAsync(key, val []byte) *Call {
	return c.start(&wire.Request{Op: wire.OpPutK, KKey: key, VVal: val})
}

// PutKV stores val under the byte-string key on the server. When it
// returns nil the write is durable in the store's persistence model.
func (c *Conn) PutKV(ctx context.Context, key, val []byte) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpPutK, KKey: key, VVal: val})
	return err
}

// DeleteKVAsync issues a pipelined DeleteK.
func (c *Conn) DeleteKVAsync(key []byte) *Call {
	return c.start(&wire.Request{Op: wire.OpDeleteK, KKey: key})
}

// DeleteKV removes the byte-string key on the server, reporting whether it
// was present.
func (c *Conn) DeleteKV(ctx context.Context, key []byte) (bool, error) {
	return found(c.do(ctx, &wire.Request{Op: wire.OpDeleteK, KKey: key}))
}

// ScanKVAsync issues a pipelined ScanK for lo <= key <= hi in bytewise
// order, returning at most max pairs (0 = the server's cap). A zero-length
// bound is unbounded on that side; bounds may be up to wire.MaxScanBound
// bytes so a pagination cursor lastKey+"\x00" always fits.
func (c *Conn) ScanKVAsync(lo, hi []byte, max int) *Call {
	return c.start(&wire.Request{Op: wire.OpScanK, KLo: lo, KHi: hi, Max: scanMax(max)})
}

// ScanKV returns byte-keyed pairs with lo <= key <= hi in ascending
// bytewise key order. Pages are bounded twice over — by max (or the
// server's pair cap) and by the response frame budget — so a result set at
// either bound may be a truncation; page with lo = lastKey+"\x00" (the
// immediate successor) to continue. The pairs' key and value slices share
// one allocation owned by the caller.
func (c *Conn) ScanKV(ctx context.Context, lo, hi []byte, max int) ([]KKV, error) {
	call, err := c.do(ctx, &wire.Request{Op: wire.OpScanK, KLo: lo, KHi: hi, Max: scanMax(max)})
	return call.Resp.KPairs, err
}
