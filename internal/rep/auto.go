package rep

import (
	"errors"
	"fmt"

	"repro/internal/client"
	"repro/internal/soap"
	"repro/internal/typemap"
)

// AutoStore implements the optimal configuration of Section 6: at run
// time it classifies each result and delegates to the best applicable
// representation:
//
//	(0) stream-accepting consumer  → raw response replay (pre-empts all)
//	(a) immutable types            → pass by reference
//	(b) Cloner implementations     → copy by clone (generated classes)
//	(c) bean-type object graphs    → copy by reflection
//	(d) gob-encodable graphs       → gob serialization
//	(e) everything else            → SAX event sequence
//
// The paper's list omits clone (its WSDL compiler did not yet emit
// clone methods) but argues it should; ours does, so clone slots in
// right after immutability. Classification is cached per type by the
// registry, so steady-state dispatch is two map lookups.
//
// When the classified representation declines a result with
// ErrNotApplicable (the registry's static flags are a prediction, not
// a guarantee — e.g. a type flagged gob-safe whose concrete value
// smuggles in an unencodable interface member), Store falls through to
// the next candidate in the chain rather than failing the fill, ending
// at the XML message store which accepts anything with a captured
// response. Other errors abort immediately, wrapped with the name of
// the representation that produced them.
type AutoStore struct {
	reg *typemap.Registry
	// chain is the Section 6 preference order (prefixed by the raw
	// streaming representation for stream-accepting invocations);
	// classify picks a start index and Store cascades from there on
	// ErrNotApplicable.
	chain [7]ValueStore
}

// Indexes into AutoStore.chain. Raw replay leads: when the consumer
// accepts a byte stream, replaying the captured envelope beats every
// object representation (no copy-out at all); it predates the Section
// 6 list, which only considered object results. The rest is Section 6
// preference order.
const (
	autoRaw = iota
	autoRef
	autoClone
	autoReflect
	autoGob
	autoSAX
	autoXML
)

var _ ValueStore = (*AutoStore)(nil)

// NewAutoStore returns the run-time classifying representation.
func NewAutoStore(reg *typemap.Registry, codec *soap.Codec) *AutoStore {
	return &AutoStore{
		reg: reg,
		chain: [7]ValueStore{
			autoRaw:     NewRawStreamStore(),
			autoRef:     NewRefStore(reg, false),
			autoClone:   NewCloneCopyStore(),
			autoReflect: NewReflectCopyStore(reg),
			autoGob:     NewGobStore(reg),
			autoSAX:     NewSAXEventsStore(codec),
			autoXML:     NewXMLMessageStore(codec),
		},
	}
}

// Name implements ValueStore.
func (s *AutoStore) Name() string { return "Auto (optimal configuration)" }

// Store implements ValueStore. The payload is wrapped so Load knows
// which representation produced it. Candidates that return
// ErrNotApplicable are skipped in favor of the next representation in
// the Section 6 chain; any other error aborts, wrapped with the
// representation's name.
func (s *AutoStore) Store(ictx *client.Context) (any, int, error) {
	var notApplicable error
	for i := s.classify(ictx); i < len(s.chain); i++ {
		chosen := s.chain[i]
		payload, size, err := chosen.Store(ictx)
		if err == nil {
			//lint:ignore aliascopy chosen is one of s's member stores picked by classification; it only reads ictx and is not data reachable from it
			return &autoPayload{store: chosen, payload: payload}, size, nil
		}
		if errors.Is(err, ErrNotApplicable) {
			notApplicable = err
			continue
		}
		return nil, 0, fmt.Errorf("rep: auto store: %s: %w", chosen.Name(), err)
	}
	// Even the XML fallback declined — nothing was captured to cache.
	return nil, 0, fmt.Errorf("rep: auto store: no applicable representation: %w", notApplicable)
}

// Load implements ValueStore.
func (s *AutoStore) Load(payload any) (any, error) {
	ap, ok := payload.(*autoPayload)
	if !ok {
		return nil, fmt.Errorf("rep: auto store: payload is %T", payload)
	}
	return ap.store.Load(ap.payload)
}

// Classify reports which representation AutoStore would choose for the
// invocation, for diagnostics and the representation example binary.
// It names the starting candidate; Store may land on a later chain
// entry if that candidate declines the concrete value.
func (s *AutoStore) Classify(ictx *client.Context) string {
	return s.chain[s.classify(ictx)].Name()
}

// classify picks the chain start index per the Section 6 decision
// list, after the one pre-Section 6 case: a stream-accepting consumer
// with a captured envelope gets raw replay.
func (s *AutoStore) classify(ictx *client.Context) int {
	if ictx.AcceptStream && len(ictx.ResponseXML) > 0 {
		return autoRaw
	}
	r := ictx.Result
	if r == nil {
		return autoRef // nil is trivially immutable
	}
	info := s.reg.InfoFor(r)
	switch {
	case info.IsImmutable:
		return autoRef
	case info.IsCloneable:
		return autoClone
	case info.IsBean:
		return autoReflect
	case info.IsGobSafe:
		return autoGob
	case len(ictx.ResponseEvents) > 0 || len(ictx.ResponseXML) > 0:
		return autoSAX
	default:
		return autoXML
	}
}

// autoPayload pairs a payload with the representation that created it.
type autoPayload struct {
	store   ValueStore
	payload any
}
