// Package client implements the broadcast client runtime (Section
// 3.2.1, client functionality): read-only transactions that read
// current, mutually consistent data entirely "off the air" — validating
// every read against the broadcast control information, never
// contacting the server — and update transactions that buffer writes
// locally and ship read/write sets up the low-bandwidth uplink at
// commit. The optional client cache implements the weak-currency
// extension of Section 3.3: items read off the air may be served from
// cache for up to a currency bound of T cycles, with the relevant
// control-matrix columns retained so validation still needs no uplink
// traffic.
package client

import (
	"errors"
	"fmt"

	"broadcastcc/internal/bcast"
	"broadcastcc/internal/cmatrix"
	"broadcastcc/internal/obs"
	"broadcastcc/internal/protocol"
	"broadcastcc/internal/qcache"
)

// Errors returned by client transactions.
var (
	// ErrInconsistentRead aborts a transaction whose next read would
	// violate the protocol's read-condition; the caller should restart
	// the transaction (typically on a later cycle).
	ErrInconsistentRead = errors.New("client: read would be inconsistent with previous reads")
	// ErrNoBroadcast means no cycle has been received yet.
	ErrNoBroadcast = errors.New("client: no broadcast cycle received yet")
	// ErrTunedOut means the subscription was closed.
	ErrTunedOut = errors.New("client: broadcast subscription closed")
	// ErrTxnFinished rejects operations on a finished transaction.
	ErrTxnFinished = errors.New("client: transaction already finished")
	// ErrNotSubscribed rejects a read of an object outside the client's
	// subset subscription: the broadcast never carried its value, so
	// there is nothing sound to serve.
	ErrNotSubscribed = errors.New("client: object outside the subset subscription")
)

// Config parameterizes a client.
type Config struct {
	// Algorithm must match what the server broadcasts.
	Algorithm protocol.Algorithm
	// CacheCurrency is the weak-currency bound T in cycles: a cached
	// item may satisfy reads while the current cycle is within T cycles
	// of the cycle it was cached in. Zero disables caching (every read
	// comes off the air, current to the running cycle — the paper's
	// default currency requirement).
	CacheCurrency cmatrix.Cycle
	// CacheCurrencyOf, when set, tailors the currency bound per object
	// (Section 3.3: "the invalidation interval can be tailored on a per
	// client per object basis"). A non-positive return disables caching
	// for that object. CacheCurrency must still be positive to enable
	// the cache and acts as the bound where CacheCurrencyOf is nil.
	CacheCurrencyOf func(obj int) cmatrix.Cycle
	// CacheSize caps the number of cached entries (0 = unlimited).
	// Eviction is least-recently-cached.
	CacheSize int
	// Store, when non-nil, is the persistent quasi-cache tier (DESIGN.md
	// §13): every cache mutation writes through to it, and at New the
	// store's recovered inventory seeds the cache — revalidated against
	// the first control snapshot heard off the air before anything is
	// served. Requires CacheCurrency > 0. Under grouped control, entries
	// stay in memory only (a grouped snapshot has no per-object column
	// worth persisting); matrix and vector control persist fully.
	Store *qcache.Store
	// Subset, when non-nil, is the client's partial-replication filter:
	// the object ids this client subscribes to. Reads outside the subset
	// fail with ErrNotSubscribed — a subset broadcast never carried
	// their values. The tuner layer is expected to deliver subset cycle
	// views (wire.SubsetCycle.Broadcast) matching this filter.
	Subset []int
	// RetainSnapshots forces the snapshot-retaining validator for every
	// transaction even without a cache — the doze-recovery mode: a
	// transaction that spans a reception gap keeps the control snapshot
	// of each read it performed, so when the client retunes after
	// missing whole cycles its in-progress read set is re-validated
	// exactly (in both cycle directions) instead of conservatively.
	// The transaction aborts only when the read-condition actually
	// fails, never silently reads stale data, and never aborts merely
	// because cycles were missed. Enabled automatically when a cache is
	// configured.
	RetainSnapshots bool
	// ObserveRead, when set, is called after every read validation with
	// the object, the cycle the read was performed in (the cache entry's
	// cycle for cache hits), whether it was served from the cache, and
	// whether the read-condition accepted it. It instruments the read
	// path for the conformance harness's live-stack audits; production
	// clients leave it nil.
	ObserveRead func(obj int, cycle cmatrix.Cycle, cacheHit, accepted bool)
	// Obs receives the client's metrics (client_cycles_seen,
	// client_gaps, client_cycles_missed, client_reads,
	// client_cache_hits, client_read_aborts, client_restarts and the
	// client_frames_* tuning counters). Nil uses a private registry;
	// Stats() is a view over it either way.
	Obs *obs.Registry
	// Trace, when non-nil, receives cycle-clock events for this
	// client's reads, aborts and retunes, with Actor = ClientID.
	Trace *obs.Tracer
	// ClientID stamps this client's trace events (Actor field) so
	// multi-client traces attribute events; obs.ActorServer (-1) is
	// reserved for servers.
	ClientID int32
}

// currencyOf resolves the effective currency bound for one object.
func (c Config) currencyOf(obj int) cmatrix.Cycle {
	if c.CacheCurrencyOf != nil {
		return c.CacheCurrencyOf(obj)
	}
	return c.CacheCurrency
}

// Client is a broadcast listener. It is not safe for concurrent use;
// run one client per goroutine, which is also the realistic deployment
// (one tuner per device).
type Client struct {
	cfg    Config
	sub    *bcast.Subscription
	cur    *bcast.CycleBroadcast
	cache  *cache
	subset map[int]bool // nil = full-channel subscription

	// pendingRevalidate marks a cache inventory recovered from the
	// persistent store that has not yet been checked against a live
	// control snapshot; the first received cycle revalidates it.
	pendingRevalidate bool

	// offline is the disconnected-operation queue: transaction intents
	// recorded while off the air, drained after retuning.
	offline []offlineOp

	// Observability: counters resolved once at New (the read path is a
	// single atomic add per outcome), tracer nil-safe.
	obs             *obs.Registry
	trace           *obs.Tracer
	cCyclesSeen     *obs.Counter
	cGaps           *obs.Counter
	cCyclesMissed   *obs.Counter
	cReads          *obs.Counter
	cCacheHits      *obs.Counter
	cReadAborts     *obs.Counter
	cRestarts       *obs.Counter
	cFramesListened *obs.Counter
	cFramesDozed    *obs.Counter
	cIndexMisses    *obs.Counter
	cRevalidated    *obs.Counter
	cRevalDropped   *obs.Counter
	cStoreErrors    *obs.Counter
	cOfflineQueued  *obs.Counter
	cOfflineOK      *obs.Counter
	cOfflineAborted *obs.Counter
}

// Stats are cumulative client counters — a view over the client's obs
// registry (Config.Obs), which is the single source of truth.
type Stats struct {
	CyclesSeen   int64
	Gaps         int64 // discontinuities in the received cycle sequence
	CyclesMissed int64 // whole cycles lost to dozes, drops or disconnects
	Reads        int64 // successful validated reads
	CacheHits    int64 // reads served from the local cache
	ReadAborts   int64 // reads rejected by the read-condition

	// Air-tuning counters, fed by the tuner layer (netcast selective
	// tuner, or the simulator's timeline accounting) via AddFrameStats.
	// Tuning time — the battery cost — is FramesListened; access time is
	// unchanged by selective tuning, which only converts listening into
	// dozing.
	FramesListened int64 // frames received and decoded
	FramesDozed    int64 // frames skipped while dozing between wakeups
	IndexMisses    int64 // wakeups that found no decodable frame (broken delta chain, lost index)
}

// New builds a client over an existing subscription (obtain one from
// server.Subscribe or bcast.Medium.Subscribe). A configured persistent
// store seeds the cache with its recovered inventory, pending
// revalidation against the first cycle heard off the air.
func New(cfg Config, sub *bcast.Subscription) *Client {
	c := &Client{cfg: cfg, sub: sub}
	if cfg.CacheCurrency > 0 {
		c.cache = newCache(cfg.CacheSize, cfg.Store)
	}
	if cfg.Subset != nil {
		c.subset = make(map[int]bool, len(cfg.Subset))
		for _, o := range cfg.Subset {
			c.subset[o] = true
		}
	}
	c.obs = cfg.Obs
	if c.obs == nil {
		c.obs = obs.NewRegistry()
	}
	c.trace = cfg.Trace
	c.cCyclesSeen = c.obs.Counter("client_cycles_seen")
	c.cGaps = c.obs.Counter("client_gaps")
	c.cCyclesMissed = c.obs.Counter("client_cycles_missed")
	c.cReads = c.obs.Counter("client_reads")
	c.cCacheHits = c.obs.Counter("client_cache_hits")
	c.cReadAborts = c.obs.Counter("client_read_aborts")
	c.cRestarts = c.obs.Counter("client_restarts")
	c.cFramesListened = c.obs.Counter("client_frames_listened")
	c.cFramesDozed = c.obs.Counter("client_frames_dozed")
	c.cIndexMisses = c.obs.Counter("client_index_misses")
	c.cRevalidated = c.obs.Counter("client_cache_revalidated")
	c.cRevalDropped = c.obs.Counter("client_cache_dropped")
	c.cStoreErrors = c.obs.Counter("client_cache_store_errors")
	c.cOfflineQueued = c.obs.Counter("client_offline_queued")
	c.cOfflineOK = c.obs.Counter("client_offline_committed")
	c.cOfflineAborted = c.obs.Counter("client_offline_aborted")
	if c.cache != nil {
		c.cache.onStoreErr = c.cStoreErrors.Inc
		if cfg.Store != nil {
			c.loadInventory()
		}
	}
	return c
}

// loadInventory seeds the cache from the persistent store's recovered
// inventory. Entries are not served until the first received cycle
// revalidates them (per-object currency check against the live control
// snapshot); the store's snapshots are rebuilt per algorithm — a
// matrix column for F-Matrix, the retained vector for the vector
// protocols. Grouped entries were never persisted. Entries the store
// recovered with one shared column share one rebuilt vector.
func (c *Client) loadInventory() {
	vecs := map[*cmatrix.Cycle]*cmatrix.Vector{}
	for obj, e := range c.cfg.Store.Inventory() {
		snap, ok := c.snapshotFromStored(obj, e.Col, vecs)
		if !ok {
			c.cfg.Store.Delete(obj)
			continue
		}
		c.cache.seed(obj, cacheEntry{value: e.Value, cycle: e.Cycle, snap: snap})
	}
	c.pendingRevalidate = c.cache.len() > 0
}

// snapshotFromStored rebuilds the validation snapshot for one stored
// column under the configured algorithm; vecs memoizes the vectors
// already rebuilt, keyed by the stored column's backing array.
func (c *Client) snapshotFromStored(obj int, col []cmatrix.Cycle, vecs map[*cmatrix.Cycle]*cmatrix.Vector) (protocol.Snapshot, bool) {
	if len(col) == 0 {
		return nil, false
	}
	switch c.cfg.Algorithm {
	case protocol.FMatrix:
		return protocol.ColumnSnapshot{Obj: obj, Col: append([]cmatrix.Cycle(nil), col...)}, true
	case protocol.RMatrix, protocol.Datacycle:
		v, ok := vecs[&col[0]]
		if !ok {
			var err error
			if v, err = cmatrix.VectorFromEntries(col); err != nil {
				return nil, false
			}
			vecs[&col[0]] = v
		}
		return protocol.VectorSnapshot{V: v}, true
	default:
		return nil, false
	}
}

// revalidateInventory checks every store-recovered entry against the
// first live control snapshot: entries beyond their currency bound, or
// from an incomparable epoch (cached "later" than the current cycle —
// the server restarted), are dropped; the rest are validated and may
// serve reads. Aborts only what genuinely fails — a disconnected
// client's inventory survives arbitrarily many missed cycles as long
// as the currency bound tolerates them.
func (c *Client) revalidateInventory(cb *bcast.CycleBroadcast) {
	c.pendingRevalidate = false
	kept, dropped := c.cache.revalidate(cb.Number, c.cfg.currencyOf)
	c.cRevalidated.Add(kept)
	c.cRevalDropped.Add(dropped)
	c.trace.Emit(obs.EvRetune, c.cfg.ClientID, int64(cb.Number), 1, kept)
}

// Obs returns the client's metrics registry (Config.Obs, or the
// private registry created when none was supplied).
func (c *Client) Obs() *obs.Registry { return c.obs }

// AwaitCycle blocks until the next broadcast cycle arrives and makes it
// current. Stale redeliveries (a lossy tuner retuning can replay the
// cycle already current) are skipped. It reports false when the
// subscription is closed.
func (c *Client) AwaitCycle() (*bcast.CycleBroadcast, bool) {
	for {
		cb, ok := <-c.sub.C
		if !ok {
			return nil, false
		}
		if c.setCurrent(cb) {
			return cb, true
		}
	}
}

// PollCycle makes the newest already-delivered cycle current without
// blocking, reporting whether a new cycle was consumed.
func (c *Client) PollCycle() bool {
	advanced := false
	for {
		select {
		case cb, ok := <-c.sub.C:
			if !ok {
				return advanced
			}
			if c.setCurrent(cb) {
				advanced = true
			}
		default:
			return advanced
		}
	}
}

// AwaitRetune is the doze-recovery entry point: it blocks for the next
// broadcast cycle, drains to the newest one already delivered, and
// reports how many whole cycles the client missed since its previous
// current cycle. A client waking from a doze calls AwaitRetune and then
// simply continues: an in-progress transaction stays valid — each of
// its later reads is validated against the control information of the
// cycle it happens in, which carries the full dependency history, so
// the transaction aborts only if the read-condition actually fails
// across the gap (never merely because cycles were missed).
func (c *Client) AwaitRetune() (cb *bcast.CycleBroadcast, missed int64, ok bool) {
	var prev cmatrix.Cycle
	if c.cur != nil {
		prev = c.cur.Number
	}
	if _, ok := c.AwaitCycle(); !ok {
		return nil, 0, false
	}
	c.PollCycle()
	if prev > 0 {
		missed = int64(c.cur.Number - prev - 1)
		if missed < 0 {
			missed = 0
		}
	}
	return c.cur, missed, true
}

// setCurrent installs a received cycle, reporting whether it advanced
// the client. Duplicates and regressions (retune replays) are ignored;
// gaps — the client was dozing, frames were lost — are detected and
// counted.
func (c *Client) setCurrent(cb *bcast.CycleBroadcast) bool {
	if c.cur != nil {
		if cb.Number <= c.cur.Number {
			return false
		}
		if gap := int64(cb.Number-c.cur.Number) - 1; gap > 0 {
			c.cGaps.Inc()
			c.cCyclesMissed.Add(gap)
			c.trace.Emit(obs.EvRetune, c.cfg.ClientID, int64(cb.Number), 0, gap)
		}
	}
	c.cur = cb
	c.cCyclesSeen.Inc()
	if c.cache != nil {
		if c.pendingRevalidate {
			c.revalidateInventory(cb)
		} else {
			c.cache.evictStale(cb.Number, c.cfg.currencyOf)
		}
	}
	return true
}

// Current returns the cycle the client is currently reading from, or
// nil before the first AwaitCycle/PollCycle.
func (c *Client) Current() *bcast.CycleBroadcast { return c.cur }

// Stats returns the client counters as a struct view over the obs
// registry.
func (c *Client) Stats() Stats {
	return Stats{
		CyclesSeen:     c.cCyclesSeen.Load(),
		Gaps:           c.cGaps.Load(),
		CyclesMissed:   c.cCyclesMissed.Load(),
		Reads:          c.cReads.Load(),
		CacheHits:      c.cCacheHits.Load(),
		ReadAborts:     c.cReadAborts.Load(),
		FramesListened: c.cFramesListened.Load(),
		FramesDozed:    c.cFramesDozed.Load(),
		IndexMisses:    c.cIndexMisses.Load(),
	}
}

// AddFrameStats accumulates air-tuning counters measured below the
// cycle layer — the netcast selective tuner and the simulator's
// timeline accounting report how many frames the client actually
// listened to, dozed through, and how many wakeups missed.
func (c *Client) AddFrameStats(listened, dozed, indexMisses int64) {
	c.cFramesListened.Add(listened)
	c.cFramesDozed.Add(dozed)
	c.cIndexMisses.Add(indexMisses)
	if dozed > 0 && c.cur != nil {
		c.trace.Emit(obs.EvDoze, c.cfg.ClientID, int64(c.cur.Number), 0, dozed)
	}
}

// Retune replaces the client's subscription after the previous one
// ended — the tuner reconnected, possibly to a restarted server whose
// cycle numbering begins again at 1. The current-cycle epoch is reset
// (cycle numbers across a server restart are incomparable, so without
// the reset every post-restart cycle would look like a stale replay
// and the client would stall forever) and the cache is dropped for the
// same reason. Any in-progress transaction should be aborted by the
// caller: its read cycles belong to the old epoch.
func (c *Client) Retune(sub *bcast.Subscription) {
	c.sub = sub
	if c.cur != nil {
		c.cGaps.Inc()
		c.trace.Emit(obs.EvRetune, c.cfg.ClientID, int64(c.cur.Number), 0, -1)
	}
	c.cur = nil
	if c.cache != nil {
		// The persistent inventory belongs to the old epoch too: clear it
		// rather than revalidate entries whose cycles are incomparable.
		c.cache.clear()
		c.cache = newCache(c.cfg.CacheSize, c.cfg.Store)
		c.cache.onStoreErr = c.cStoreErrors.Inc
	}
	c.pendingRevalidate = false
}

// Cancel tunes the client out.
func (c *Client) Cancel() { c.sub.Cancel() }

// validatorFor builds the validator for one transaction attempt. With
// caching enabled (or RetainSnapshots set), reads can be out of cycle
// order, so the snapshot-retaining validator is used for every
// algorithm (for the vector protocols this is conservative but sound;
// without caching the exact paper validators apply, including
// R-Matrix's disjunct).
func (c *Client) validatorFor() protocol.Validator {
	if c.cache != nil || c.cfg.RetainSnapshots {
		return &protocol.SnapshotValidator{}
	}
	return protocol.NewValidator(c.cfg.Algorithm)
}

// ReadTxn is a read-only transaction. Reads are validated against the
// control information of the cycle (or cache entry) they come from; a
// failed validation aborts the transaction with ErrInconsistentRead.
type ReadTxn struct {
	c    *Client
	val  protocol.Validator
	done bool
}

// BeginReadOnly starts a read-only transaction.
func (c *Client) BeginReadOnly() *ReadTxn {
	return &ReadTxn{c: c, val: c.validatorFor()}
}

// Read returns the value of obj: from the local cache when a
// sufficiently current entry exists, otherwise off the current
// broadcast cycle (caching the item for future transactions). A
// validation failure returns ErrInconsistentRead and finishes the
// transaction.
func (t *ReadTxn) Read(obj int) ([]byte, error) {
	if t.done {
		return nil, ErrTxnFinished
	}
	value, snap, cycle, hit, err := t.c.fetch(obj)
	if err != nil {
		return nil, err
	}
	if !t.val.TryRead(snap, obj, cycle) {
		t.done = true
		t.c.readAborted(obj, cycle, hit)
		t.c.invalidateAfterAbort(t.val, obj)
		return nil, fmt.Errorf("%w: object %d at cycle %d", ErrInconsistentRead, obj, cycle)
	}
	t.c.readValidated(obj, cycle, hit)
	return value, nil
}

// readValidated / readAborted record a read outcome in the registry
// and trace. Cache hits are stamped frame -1 (the value never crossed
// the air this cycle); off-the-air reads use frame 0, since the flat
// client layer has no sub-cycle frame position (the selective tuner
// accounts frames via AddFrameStats).
func (c *Client) readValidated(obj int, cycle cmatrix.Cycle, hit bool) {
	c.cReads.Inc()
	frame := int32(0)
	if hit {
		c.cCacheHits.Inc()
		frame = -1
	}
	c.trace.Emit(obs.EvReadValidate, c.cfg.ClientID, int64(cycle), frame, int64(obj))
	c.observeRead(obj, cycle, hit, true)
}

func (c *Client) readAborted(obj int, cycle cmatrix.Cycle, hit bool) {
	c.cReadAborts.Inc()
	frame := int32(0)
	if hit {
		frame = -1
	}
	c.trace.Emit(obs.EvReadAbort, c.cfg.ClientID, int64(cycle), frame, int64(obj))
	c.observeRead(obj, cycle, hit, false)
}

// observeRead notifies the instrumentation hook, when one is installed.
func (c *Client) observeRead(obj int, cycle cmatrix.Cycle, cacheHit, accepted bool) {
	if c.cfg.ObserveRead != nil {
		c.cfg.ObserveRead(obj, cycle, cacheHit, accepted)
	}
}

// Commit finishes the transaction, returning its read-set. Read-only
// transactions never contact the server: if every Read succeeded the
// transaction is correct by construction (Theorem 1).
func (t *ReadTxn) Commit() ([]protocol.ReadAt, error) {
	if t.done {
		return nil, ErrTxnFinished
	}
	t.done = true
	return t.val.ReadSet(), nil
}

// invalidateAfterAbort drops the aborted transaction's objects from the
// cache so a restart re-reads them off the air instead of replaying the
// same stale entries into the same conflict.
func (c *Client) invalidateAfterAbort(v protocol.Validator, failedObj int) {
	if c.cache == nil {
		return
	}
	for _, r := range v.ReadSet() {
		c.cache.remove(r.Obj)
	}
	c.cache.remove(failedObj)
}

// fetch resolves a read: cache first (when enabled and fresh), then the
// current broadcast. Subset subscribers can only read subscribed
// objects — the broadcast never carried the rest.
func (c *Client) fetch(obj int) (value []byte, snap protocol.Snapshot, cycle cmatrix.Cycle, cacheHit bool, err error) {
	if c.cur == nil {
		return nil, nil, 0, false, ErrNoBroadcast
	}
	if obj < 0 || obj >= len(c.cur.Values) {
		return nil, nil, 0, false, fmt.Errorf("client: object %d out of range [0,%d)", obj, len(c.cur.Values))
	}
	if c.subset != nil && !c.subset[obj] {
		return nil, nil, 0, false, fmt.Errorf("%w: object %d", ErrNotSubscribed, obj)
	}
	if c.cache != nil {
		// get enforces the currency bound at read time (and evicts on
		// failure): a CacheCurrencyOf bound lowered mid-cycle takes effect
		// immediately, not at the next cycle boundary.
		if e, ok := c.cache.get(obj, c.cur.Number, c.cfg.currencyOf); ok {
			return append([]byte(nil), e.value...), e.snap, e.cycle, true, nil
		}
	}
	value = append([]byte(nil), c.cur.Values[obj]...)
	cycle = c.cur.Number
	if c.cache != nil {
		// Retain only this object's control slice so the cache cost per
		// entry matches Section 3.3 (one matrix column, or the vector).
		snap = c.columnSnapshot(obj)
		c.cache.put(obj, cacheEntry{value: value, cycle: cycle, snap: snap})
	} else {
		snap = c.cur.Snapshot()
	}
	return value, snap, cycle, false, nil
}

// columnSnapshot extracts the per-object control information retained
// with cached entries.
func (c *Client) columnSnapshot(obj int) protocol.Snapshot {
	if c.cur.Matrix != nil {
		return c.cur.Column(obj)
	}
	// Vector layouts: the whole (small) vector is the "column".
	return c.cur.Snapshot()
}

// RunReadOnly executes fn as a read-only transaction, retrying on
// ErrInconsistentRead: each retry waits for the next broadcast cycle
// (fresher data) and re-runs fn with a new transaction. Zero
// maxAttempts means retry until the subscription closes. Any other
// error from fn aborts the loop and is returned.
func (c *Client) RunReadOnly(maxAttempts int, fn func(*ReadTxn) error) ([]protocol.ReadAt, error) {
	for attempt := 0; maxAttempts == 0 || attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.cRestarts.Inc()
			if _, ok := c.AwaitCycle(); !ok {
				return nil, ErrTunedOut
			}
		}
		txn := c.BeginReadOnly()
		err := fn(txn)
		switch {
		case errors.Is(err, ErrInconsistentRead):
			continue
		case err != nil:
			return nil, err
		}
		return txn.Commit()
	}
	return nil, fmt.Errorf("client: read-only transaction aborted %d times", maxAttempts)
}

// UpdateTxn is a client update transaction: reads are validated like a
// read-only transaction's (so the transaction always sees mutually
// consistent data), writes are buffered locally, and Commit ships the
// read/write sets over the uplink for server-side validation.
type UpdateTxn struct {
	c      *Client
	val    protocol.Validator
	writes map[int][]byte
	order  []int
	done   bool
}

// BeginUpdate starts an update transaction.
func (c *Client) BeginUpdate() *UpdateTxn {
	return &UpdateTxn{c: c, val: c.validatorFor(), writes: map[int][]byte{}}
}

// Read returns the value of obj, validated against previous reads.
// The transaction's own buffered writes are returned as-is.
func (t *UpdateTxn) Read(obj int) ([]byte, error) {
	if t.done {
		return nil, ErrTxnFinished
	}
	if v, ok := t.writes[obj]; ok {
		return append([]byte(nil), v...), nil
	}
	value, snap, cycle, hit, err := t.c.fetch(obj)
	if err != nil {
		return nil, err
	}
	if !t.val.TryRead(snap, obj, cycle) {
		t.done = true
		t.c.readAborted(obj, cycle, hit)
		t.c.invalidateAfterAbort(t.val, obj)
		return nil, fmt.Errorf("%w: object %d at cycle %d", ErrInconsistentRead, obj, cycle)
	}
	t.c.readValidated(obj, cycle, hit)
	return value, nil
}

// Write buffers val as the new value of obj. No check is made (Section
// 3.2.1: writes are local until commit).
func (t *UpdateTxn) Write(obj int, val []byte) error {
	if t.done {
		return ErrTxnFinished
	}
	if t.c.cur != nil && (obj < 0 || obj >= len(t.c.cur.Values)) {
		return fmt.Errorf("client: object %d out of range [0,%d)", obj, len(t.c.cur.Values))
	}
	if _, seen := t.writes[obj]; !seen {
		t.order = append(t.order, obj)
	}
	t.writes[obj] = append([]byte(nil), val...)
	return nil
}

// Commit finishes the transaction. Pure readers commit locally; writers
// ship an UpdateRequest up the uplink and adopt the server's verdict.
func (t *UpdateTxn) Commit(uplink protocol.Uplink) error {
	req, err := t.Finish()
	if err != nil {
		return err
	}
	if len(req.Writes) == 0 {
		return nil
	}
	return uplink.SubmitUpdate(req)
}

// Finish ends the transaction and returns the update request it would
// have submitted — the validated read set plus buffered writes in
// write order — without shipping it anywhere. The shard router uses
// this to merge per-shard requests into one global submission, where
// even a pure-reader shard's read set must travel (the coordinator
// validates and pins reads at every participant).
func (t *UpdateTxn) Finish() (protocol.UpdateRequest, error) {
	if t.done {
		return protocol.UpdateRequest{}, ErrTxnFinished
	}
	t.done = true
	req := protocol.UpdateRequest{Reads: t.val.ReadSet()}
	for _, obj := range t.order {
		req.Writes = append(req.Writes, protocol.ObjectWrite{Obj: obj, Value: t.writes[obj]})
	}
	return req, nil
}

// Abort discards the transaction.
func (t *UpdateTxn) Abort() { t.done = true }

// cache is the client's least-recently-cached store of broadcast items.
// With a persistent store attached every mutation writes through, so
// the on-disk inventory tracks the in-memory one record for record.
type cache struct {
	max        int
	entries    map[int]cacheEntry
	order      []int // insertion order for eviction
	store      *qcache.Store
	onStoreErr func()
	// vec and vecCol memoize the last vector snapshot persisted and its
	// column image: every object cached in one cycle retains the same
	// vector, so the column is built once per cycle, not once per put.
	vec    *cmatrix.Vector
	vecCol []cmatrix.Cycle
}

type cacheEntry struct {
	value []byte
	cycle cmatrix.Cycle
	snap  protocol.Snapshot
}

func newCache(max int, store *qcache.Store) *cache {
	return &cache{max: max, entries: map[int]cacheEntry{}, store: store}
}

// get returns the entry for obj if it is within its currency bound at
// the current cycle; a stale entry is evicted on the spot, so a bound
// lowered mid-cycle takes effect at the very next read rather than at
// the next cycle boundary. The stale-serve hook disables the check —
// the conformance harness uses it to prove the oracle notices.
func (c *cache) get(obj int, now cmatrix.Cycle, currencyOf func(obj int) cmatrix.Cycle) (cacheEntry, bool) {
	e, ok := c.entries[obj]
	if !ok {
		return e, false
	}
	if cacheSkipRevalidate {
		return e, true
	}
	if now-e.cycle > currencyOf(obj) {
		c.remove(obj)
		return cacheEntry{}, false
	}
	return e, true
}

func (c *cache) put(obj int, e cacheEntry) {
	if _, exists := c.entries[obj]; !exists {
		if c.max > 0 && len(c.entries) >= c.max {
			c.evictOldest()
		}
		c.order = append(c.order, obj)
	} else {
		c.removeFromOrder(obj)
		c.order = append(c.order, obj)
	}
	c.entries[obj] = e
	c.persist(obj, e)
}

// seed installs an entry recovered from the persistent store without
// writing it back.
func (c *cache) seed(obj int, e cacheEntry) {
	if _, exists := c.entries[obj]; !exists {
		if c.max > 0 && len(c.entries) >= c.max {
			c.evictOldest()
		}
		c.order = append(c.order, obj)
	}
	c.entries[obj] = e
}

// persist writes one entry through to the store. Grouped snapshots
// carry no per-object column and stay memory-only.
func (c *cache) persist(obj int, e cacheEntry) {
	if c.store == nil {
		return
	}
	col, ok := c.storedColumn(e.snap)
	if !ok {
		return
	}
	if err := c.store.Put(obj, e.value, e.cycle, col); err != nil && c.onStoreErr != nil {
		c.onStoreErr()
	}
}

// unpersist removes one entry from the store.
func (c *cache) unpersist(obj int) {
	if c.store == nil {
		return
	}
	if err := c.store.Delete(obj); err != nil && c.onStoreErr != nil {
		c.onStoreErr()
	}
}

// storedColumn extracts the persistable control column from a retained
// snapshot: the F-Matrix column, or the whole vector.
func (c *cache) storedColumn(snap protocol.Snapshot) ([]cmatrix.Cycle, bool) {
	switch s := snap.(type) {
	case protocol.ColumnSnapshot:
		return s.Col, true
	case protocol.VectorSnapshot:
		if s.V != c.vec {
			col := make([]cmatrix.Cycle, s.V.N())
			for i := range col {
				col[i] = s.V.At(i)
			}
			c.vec, c.vecCol = s.V, col
		}
		return c.vecCol, true
	default:
		return nil, false
	}
}

func (c *cache) evictOldest() {
	for len(c.order) > 0 {
		obj := c.order[0]
		c.order = c.order[1:]
		if _, ok := c.entries[obj]; ok {
			delete(c.entries, obj)
			c.unpersist(obj)
			return
		}
	}
}

func (c *cache) removeFromOrder(obj int) {
	for i, o := range c.order {
		if o == obj {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// remove drops one entry if present.
func (c *cache) remove(obj int) {
	if _, ok := c.entries[obj]; ok {
		delete(c.entries, obj)
		c.removeFromOrder(obj)
		c.unpersist(obj)
	}
}

// evictStale drops entries older than their (per-object) currency bound
// — the paper's purely local invalidation: no communication needed.
func (c *cache) evictStale(now cmatrix.Cycle, currencyOf func(obj int) cmatrix.Cycle) {
	if cacheSkipRevalidate {
		return
	}
	for obj, e := range c.entries {
		if now-e.cycle > currencyOf(obj) {
			delete(c.entries, obj)
			c.removeFromOrder(obj)
			c.unpersist(obj)
		}
	}
}

// revalidate is the restart/reconnect inventory check: entries beyond
// their currency bound at the current cycle, or cached in a later
// (incomparable) epoch, are dropped. Returns kept and dropped counts.
func (c *cache) revalidate(now cmatrix.Cycle, currencyOf func(obj int) cmatrix.Cycle) (kept, dropped int64) {
	for obj, e := range c.entries {
		if !cacheSkipRevalidate && (e.cycle > now || now-e.cycle > currencyOf(obj)) {
			delete(c.entries, obj)
			c.removeFromOrder(obj)
			c.unpersist(obj)
			dropped++
			continue
		}
		kept++
	}
	return kept, dropped
}

// clear drops every entry, in memory and in the store (epoch reset).
func (c *cache) clear() {
	for obj := range c.entries {
		delete(c.entries, obj)
		c.unpersist(obj)
	}
	c.order = c.order[:0]
}

// Len reports the number of cached entries.
func (c *cache) len() int { return len(c.entries) }
