package client

import (
	"context"

	"repro/wire"
)

// TxnOp is one transaction write-set operation, aliased from the wire
// layer.
type TxnOp = wire.TxnOp

// Txn is a client-side transaction builder: it accumulates a write-set
// locally — fixed-width and byte-string keyed puts and deletes — and
// ships the whole set in one OpTxn frame, which the server commits
// atomically (all-or-nothing, including across server crashes). The
// builder is plain data: not safe for concurrent use, reusable after a
// commit fails at validation, and free to build before a connection even
// exists. There are no transactional reads over the wire; read what you
// need first, then buffer the writes.
//
// Later buffered operations on the same key win over earlier ones at
// apply time, matching the store's write-set semantics.
type Txn struct {
	ops []TxnOp
}

// Put buffers a fixed-width write of val under key.
func (t *Txn) Put(key, val uint64) *Txn {
	t.ops = append(t.ops, TxnOp{Kind: wire.TxnPut, Key: key, Val: val})
	return t
}

// Delete buffers a fixed-width delete of key.
func (t *Txn) Delete(key uint64) *Txn {
	t.ops = append(t.ops, TxnOp{Kind: wire.TxnDelete, Key: key})
	return t
}

// PutKV buffers a byte-string-keyed write. key must be 1..wire.MaxKey
// bytes and val at most wire.MaxKValue; both are captured by reference,
// so the caller must not mutate them until the commit is issued.
func (t *Txn) PutKV(key, val []byte) *Txn {
	t.ops = append(t.ops, TxnOp{Kind: wire.TxnPutK, KKey: key, VVal: val})
	return t
}

// DeleteKV buffers a byte-string-keyed delete (captured by reference
// until the commit is issued).
func (t *Txn) DeleteKV(key []byte) *Txn {
	t.ops = append(t.ops, TxnOp{Kind: wire.TxnDeleteK, KKey: key})
	return t
}

// Len returns the number of buffered operations.
func (t *Txn) Len() int { return len(t.ops) }

// Reset empties the builder for reuse.
func (t *Txn) Reset() { t.ops = t.ops[:0] }

// CommitTxnAsync issues a pipelined transaction commit carrying tx's
// write-set; tx may be reset and reused as soon as it returns. Size
// violations — more than wire.MaxTxnOps operations, an op with an
// out-of-range key or value, or a set that overflows one frame — fail the
// call locally without touching the connection.
func (c *Conn) CommitTxnAsync(tx *Txn) *Call {
	return c.start(&wire.Request{Op: wire.OpTxn, TxnOps: tx.ops})
}

// CommitTxn commits tx's write-set atomically on the server: when it
// returns nil every operation is applied and durable; on a server-side
// refusal (*RemoteError — over-capacity write-set, out of space, store
// closed) none are. The one exception is ErrTxnIncomplete: the commit
// crossed its durable commit point but failed to finish applying, so the
// transaction IS committed — the server replays it to completion when its
// store reopens — just not yet visible. Treat it as success that must not
// be reissued, not as a refusal. A transport failure or a ctx cut leaves
// the outcome unknown, like any other write. An empty transaction commits
// as a no-op without touching the connection.
func (c *Conn) CommitTxn(ctx context.Context, tx *Txn) error {
	if tx.Len() == 0 {
		return nil
	}
	_, err := c.do(ctx, &wire.Request{Op: wire.OpTxn, TxnOps: tx.ops})
	return err
}
