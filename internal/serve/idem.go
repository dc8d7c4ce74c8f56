package serve

import (
	"context"
	"errors"
	"fmt"

	"viyojit/internal/intent"
	"viyojit/internal/kvstore"
)

// IdemKind selects the mutation an IdemOp performs.
type IdemKind uint8

const (
	// IdemPut writes Value under Key.
	IdemPut IdemKind = iota
	// IdemDelete removes Key.
	IdemDelete
	// IdemRMW reads Key and writes Modify's return value (nil deletes).
	// The journal records the *computed* image, so a post-crash retry
	// re-applies exactly the bytes the original attempt decided on —
	// Modify is never re-run against already-mutated state.
	IdemRMW
)

// IdemOp is an idempotently-executed mutation.
type IdemOp struct {
	Kind  IdemKind
	Key   []byte
	Value []byte // IdemPut only
	// Modify computes the new value for IdemRMW from the old one (nil,
	// ok=false when the key is absent). Returning nil deletes the key.
	// It must be pure: it runs at most once per (client, seq).
	Modify func(old []byte, ok bool) []byte
	// Tag folds extra identity into the op checksum so two ops with the
	// same key that are nonetheless different (e.g. two RMWs, whose
	// closures the checksum cannot see) are distinguishable when a
	// client erroneously reuses a sequence number.
	Tag uint64
}

// Result codes carried in IdemResult.Code (and cached in the journal).
const (
	// IdemApplied: the mutation landed (Put/RMW wrote, Delete removed
	// an existing key).
	IdemApplied byte = 0
	// IdemNotFound: a Delete whose key did not exist. Still
	// exactly-once: the cached code makes the retry see the same answer.
	IdemNotFound byte = 1
)

// IdemResult is the outcome of an idempotent request.
type IdemResult struct {
	// Code is the small result the journal caches for dedup.
	Code byte
	// Value is the image the op wrote (nil for deletes) — the RMW
	// return path.
	Value []byte
	// Deduped: this request was already complete; the result came from
	// the journal's cache and nothing was re-applied.
	Deduped bool
	// Redone: the request was found in-flight from before a crash and
	// its recorded redo image was (re-)applied.
	Redone bool
}

// SubmitIdempotent runs op exactly once for (clientID, seq), however
// many times it is retried across overloads, deadline sheds, and power
// failures. Requires Config.Journal.
func (s *Server) SubmitIdempotent(ctx context.Context, clientID, seq uint64, op IdemOp, opts Request) (IdemResult, error) {
	opts.ClientID = clientID
	opts.RequestSeq = seq
	opts.Idem = &op
	opts.Op = nil
	opts.Write = true
	res, err := s.Submit(ctx, opts)
	if err != nil {
		return IdemResult{}, err
	}
	return res.Idem, nil
}

// opSum derives the op checksum recorded with the intent: retrying the
// same logical op reproduces it; reusing the seq for a different op
// does not (up to Tag for RMW closures).
func opSum(op *IdemOp) uint64 {
	return intent.Checksum(op.Key, op.Value, uint64(op.Kind)<<32^op.Tag)
}

// execIdem is the owner's half of the exactly-once protocol:
//
//	dedup lookup → (cached result | redo re-apply | fresh execution)
//
// Fresh execution journals intent+redo BEFORE touching the store and
// the result code after, so every crash window resolves correctly:
//
//	crash before the intent lands   → journal has nothing; the retry is
//	                                  fresh, and the store was untouched
//	crash after intent, before apply → ReplayPendingWith re-applies the redo
//	                                  at recovery (no-op twice over:
//	                                  blind Put/Delete)
//	crash after apply, before result → ReplayPendingWith re-applies the same
//	                                  image idempotently — the
//	                                  double-apply window this journal
//	                                  exists to close
//	crash after result               → retry is deduped from cache
//
// The StateInFlight branch below is the retry-time fallback for a server
// recovered without ReplayPendingWith; it is sound only until other
// mutations touch the same key, which recovery-time replay avoids.
func (s *Server) execIdem(e Exec, req Request) (IdemResult, error) {
	j := s.cfg.Journal
	if j == nil {
		return IdemResult{}, fmt.Errorf("serve: idempotent request but server has no intent journal")
	}
	if e.Store == nil {
		return IdemResult{}, fmt.Errorf("serve: idempotent request but server fronts no store")
	}
	op := req.Idem
	sum := opSum(op)
	client, seq := req.ClientID, req.RequestSeq

	ent, state := j.Lookup(client, seq)
	switch state {
	case intent.StateDone:
		if ent.OpSum != sum {
			return IdemResult{}, fmt.Errorf("%w: client %d seq %d", ErrSeqReuse, client, seq)
		}
		s.st.idemDedup.Inc()
		res := IdemResult{Code: ent.Code, Value: op.Value, Deduped: true}
		if op.Kind != IdemPut {
			res.Value = cloneBytes(ent.Result)
		}
		return res, nil

	case intent.StateInFlight:
		if ent.OpSum != sum {
			return IdemResult{}, fmt.Errorf("%w: client %d seq %d", ErrSeqReuse, client, seq)
		}
		code, err := applyImage(e.Store, ent.RedoKey, ent.RedoVal, ent.Tombstone)
		if err != nil {
			return IdemResult{}, err
		}
		s.crashPoint() // redo applied, completion record not yet durable
		// The redo image is a journal view that Complete retires (its
		// buffer may go to the next Begin), so copy it first.
		res := IdemResult{Code: code, Value: cloneBytes(ent.RedoVal), Redone: true}
		if err := j.Complete(client, seq, code, cachedResult(op, ent.RedoVal)); err != nil && !errors.Is(err, intent.ErrJournalFull) {
			return IdemResult{}, err
		}
		s.st.idemRedo.Inc()
		return res, nil

	case intent.StateBelowWindow:
		return IdemResult{}, fmt.Errorf("%w: client %d seq %d", ErrStaleSeq, client, seq)
	}

	// Fresh request: compute the redo image.
	var image []byte
	tombstone := false
	switch op.Kind {
	case IdemPut:
		image = op.Value
	case IdemDelete:
		tombstone = true
	case IdemRMW:
		if op.Modify == nil {
			return IdemResult{}, fmt.Errorf("serve: IdemRMW without Modify")
		}
		old, ok, err := e.Store.Get(op.Key)
		if err != nil {
			return IdemResult{}, err
		}
		image = op.Modify(old, ok)
		if image == nil {
			tombstone = true
		}
	default:
		return IdemResult{}, fmt.Errorf("serve: unknown IdemKind %d", op.Kind)
	}

	// Intent (with redo) must be durable-ordered before the mutation.
	if err := j.Begin(client, seq, sum, op.Key, image, tombstone); err != nil {
		if errors.Is(err, intent.ErrJournalFull) {
			// The journal needs live entries to retire; the request was
			// NOT executed, so backing off and retrying is safe.
			return IdemResult{}, fmt.Errorf("%w: intent journal full", ErrOverloaded)
		}
		return IdemResult{}, err
	}
	s.crashPoint() // intent durable, mutation not yet applied
	code, err := applyImage(e.Store, op.Key, image, tombstone)
	if err != nil {
		// Intent stands, mutation state unknown — exactly the situation
		// the redo record repairs on the next retry of this seq.
		return IdemResult{}, err
	}
	s.crashPoint() // mutation applied, completion record not yet durable
	if err := j.Complete(client, seq, code, cachedResult(op, image)); err != nil && !errors.Is(err, intent.ErrJournalFull) {
		return IdemResult{}, err
	}
	return IdemResult{Code: code, Value: image}, nil
}

// cachedResult is what the journal caches for a retry of op, whose
// mutation wrote image. A Put caches nothing: its retry carries the value,
// and the op checksum proves it is the one that was written.
func cachedResult(op *IdemOp, image []byte) []byte {
	if op.Kind == IdemPut {
		return nil
	}
	return image
}

// applyImage blindly applies a redo image — the idempotent primitive
// everything above reduces to.
func applyImage(st *kvstore.Store, key, image []byte, tombstone bool) (byte, error) {
	if tombstone {
		found, err := st.Delete(key)
		if err != nil {
			return 0, err
		}
		if !found {
			return IdemNotFound, nil
		}
		return IdemApplied, nil
	}
	if err := st.Put(key, image); err != nil {
		return 0, err
	}
	return IdemApplied, nil
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
