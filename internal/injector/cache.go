package injector

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"healers/internal/cparse"
	"healers/internal/extract"
	"healers/internal/obs"
)

// CacheStats is a snapshot of a ResultCache's counters. A campaign's
// lookup counts exactly one of Hits, Leads or Joins, and a lead that
// succeeds counts one Miss at its Put, so at quiescence
// Hits+Misses+Joins is the number of lookups whose computation did not
// fail. Entries never runs ahead of Misses+Loaded. Loaded, Dropped and
// Truncated are the log's and stay zero without one.
type CacheStats struct {
	// Hits counts lookups served from the cache.
	Hits int64
	// Misses counts results computed and stored (one per Put).
	Misses int64
	// Leads counts lookups that missed and took on the key's
	// computation.
	Leads int64
	// Joins counts lookups that waited on another caller's in-flight
	// computation of the key.
	Joins int64
	// InFlight is the number of computations currently running.
	InFlight int64
	// Entries is the number of results currently held.
	Entries int64
	// Loaded counts entries restored from the log at open.
	Loaded int64
	// Dropped counts persisted entries rejected at load time —
	// checksum-corrupt, garbage, or version-skewed lines — plus entries
	// that never reached the log: unserializable, put after Close, or
	// put after a failed write poisoned it.
	Dropped int64
	// Truncated counts a partial final line with no trailing newline,
	// the expected residue of a process killed mid-append. Distinct
	// from Dropped so crash recovery is observable separately from
	// genuine corruption.
	Truncated int64
}

// cacheShardCount spreads the in-memory cache over independently locked
// shards so a warm parallel campaign's workers do not serialize on one
// mutex per lookup. Power of two for mask indexing.
const cacheShardCount = 8

// cacheSlot is one key's record: a finished result, or (fill set) the
// computation a leader is running for it.
type cacheSlot struct {
	r    *Result
	fill *cacheFill
}

// cacheFill is an in-flight computation. Its leader finishes it
// exactly once, by Put (r) or by abandon (err), and closes done; the
// joiners read r and err after done.
type cacheFill struct {
	done chan struct{}
	r    *Result
	err  error
}

// wait blocks until the fill's leader finishes and returns its outcome.
func (f *cacheFill) wait() (*Result, error) {
	<-f.done
	return f.r, f.err
}

// cacheShard is one lock domain of the ResultCache, padded so two
// shards' mutexes never share a cache line.
type cacheShard struct {
	mu       sync.Mutex
	m        map[string]cacheSlot
	hits     int64
	misses   int64
	leads    int64
	joins    int64
	inflight int64
	_        [64]byte
}

// ResultCache memoizes per-function campaign results keyed by the
// (prototype, config fingerprint) content address, so a re-run skips
// exactly the functions whose inputs are unchanged. Cached Results are
// shared; callers treat them as immutable. A cache is scoped to one
// library implementation, which it cannot observe.
//
// It also single-flights its own fills: a campaign's lookup (claim)
// that misses records an in-flight computation under the key, and
// concurrent lookups of that key join it instead of computing again,
// so a burst of identical requests costs one injection. For any key at
// most one computation is ever in flight.
//
// Get counts a hit when it finds a finished result; Put counts a miss,
// stores, and finishes the key's fill if one is running. Keys are
// sharded by hash and a shard's records and counters move under one
// lock, so a summed Stats snapshot never reports an entry whose miss
// is missing. A cache from OpenDiskCache also has a log (cacheLog)
// persisting its entries; without one, Sync and Close do nothing.
type ResultCache struct {
	shards [cacheShardCount]cacheShard
	log    *cacheLog // nil: memory only
}

// NewResultCache returns an empty in-memory campaign result cache.
func NewResultCache() *ResultCache {
	c := &ResultCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[string]cacheSlot)
	}
	return c
}

// shard maps a key to its lock domain (inline FNV-1a; the keys are
// long prototype strings, so the cheap hash spreads well).
func (c *ResultCache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h&(cacheShardCount-1)]
}

// Get returns the cached result for key, if present, counting a hit
// when it is. A key whose computation is still in flight is absent.
func (c *ResultCache) Get(key string) (*Result, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := s.m[key]
	if slot.r == nil {
		return nil, false
	}
	s.hits++
	return slot.r, true
}

// claim is a campaign's lookup of key, exactly one of: a hit (r set),
// a join of the in-flight computation f (lead false; f.wait gives its
// outcome), or a lead (lead true): the key had no record, so the
// caller now owns its computation and must finish it with Put or
// abandon.
func (c *ResultCache) claim(key string) (r *Result, f *cacheFill, lead bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := s.m[key]
	switch {
	case slot.r != nil:
		s.hits++
		return slot.r, nil, false
	case slot.fill != nil:
		s.joins++
		return nil, slot.fill, false
	}
	f = &cacheFill{done: make(chan struct{})}
	s.m[key] = cacheSlot{fill: f}
	s.leads++
	s.inflight++
	return nil, f, true
}

// abandon finishes the leader's fill f of key with err: every joiner
// gets err, and the key is left without a record, so the failure is
// not cached.
func (c *ResultCache) abandon(key string, f *cacheFill, err error) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[key].fill != f {
		return // a Put already finished it
	}
	delete(s.m, key)
	s.inflight--
	f.err = err
	close(f.done)
}

// Put stores a computed result under key, counting a miss, and hands
// it to the joiners of the key's in-flight computation, if any. With a
// log, the entry's line is appended first and the entry becomes
// visible — to Get and to joiners — only then, still under the log
// lock: a hit never serves an entry whose line was not yet written,
// and memory and file agree on which of two racing Puts of one key
// came last.
func (c *ResultCache) Put(key string, r *Result) {
	if c.log != nil {
		line, err := encodeLine(key, r)
		c.log.mu.Lock()
		defer c.log.mu.Unlock()
		c.log.append(line, err)
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.m[key].fill; f != nil {
		s.inflight--
		f.r = r
		close(f.done)
	}
	s.m[key] = cacheSlot{r: r}
	s.misses++
}

// restore stores an entry replayed from the log, counting nothing, and
// reports whether its key was new.
func (c *ResultCache) restore(key string, r *Result) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, dup := s.m[key]
	s.m[key] = cacheSlot{r: r}
	return !dup
}

// Persistent reports whether the cache has a log for Sync to make durable.
func (c *ResultCache) Persistent() bool { return c.log != nil }

// Sync forces every appended entry to stable storage; serve calls it
// at campaign commit. It returns the write error of a poisoned log.
func (c *ResultCache) Sync() error {
	if c.log == nil {
		return nil
	}
	return c.log.sync()
}

// Close syncs and closes the log, releasing its lock, and returns the
// write error of a poisoned log. Puts after Close stay memory-only.
func (c *ResultCache) Close() error {
	if c.log == nil {
		return nil
	}
	return c.log.close()
}

// Len returns the number of cached functions.
func (c *ResultCache) Len() int { return int(c.Stats().Entries) }

// Stats returns a snapshot of the cache counters, summed over
// per-shard-consistent states, plus the log's counts.
func (c *ResultCache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Leads += s.leads
		st.Joins += s.joins
		st.InFlight += s.inflight
		st.Entries += int64(len(s.m)) - s.inflight
		s.mu.Unlock()
	}
	if l := c.log; l != nil {
		l.mu.Lock()
		st.Loaded, st.Dropped, st.Truncated = l.loaded, l.dropped, l.truncated
		l.mu.Unlock()
	}
	return st
}

// cacheKey builds the memoization key for one function under one
// configuration: prototype text plus the config fingerprint. The
// prototype string includes the function name, return type, parameter
// types and qualifiers — any header change that could alter generator
// selection changes the key.
func cacheKey(fi *extract.FuncInfo, cfg Config) string {
	return fi.Proto.String() + "|" + cfg.fingerprint(fi.Symbol.Name)
}

// fingerprint hashes the configuration fields that influence a
// function's campaign outcome. The step budget and product cap are
// constants but stay in the hash, so persisted keys keep their values
// (TestCacheKeyPinned). Observability plumbing (Obs, Metrics) and scheduling (Workers,
// LibFactory, Cache) are deliberately excluded: they change how the
// campaign is observed and executed, never what it computes.
func (cfg Config) fingerprint(fn string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v1|%d|%d|%t", StepBudget, productCap, cfg.Conservative)
	for _, s := range cfg.Seeds[fn] {
		fmt.Fprintf(h, "|%d,%t", s.Size, s.ReadOnly)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// injectOne runs (or recalls) one function's campaign through the
// configured result cache. The bool reports that the result came from
// the cache or from another campaign's in-flight computation rather
// than a fresh injection.
//
// parent is the scheduling span this function runs under (the campaign
// span when sequential, the worker span when sharded). A fresh
// injection parents the function campaign span to it; a cache hit (or
// join) instead emits a short span of its own, so warm-campaign traces
// stay connected trees — every function appears, annotated with how
// its result was obtained.
func (inj *Injector) injectOne(fi *extract.FuncInfo, table *cparse.TypeTable, parent obs.SpanContext) (*Result, bool, error) {
	cache := inj.cfg.Cache
	if cache == nil {
		r, err := inj.injectFunction(fi, table, parent)
		return r, false, err
	}
	key := cacheKey(fi, inj.cfg)
	lookupStart := time.Now() //healers:allow-nondeterminism cache-lookup latency histogram, reporting only
	r, fill, lead := cache.claim(key)
	inj.hPhaseCache.ObserveEx(time.Since(lookupStart).Microseconds(), parent.Trace)
	switch {
	case r != nil:
		inj.emitRecallSpan(fi, parent, lookupStart, "cached")
		return r, true, nil
	case !lead:
		r, err := fill.wait()
		inj.emitRecallSpan(fi, parent, lookupStart, "flight-join")
		return r, true, err
	}
	r, err := inj.injectFunction(fi, table, parent)
	if err != nil {
		cache.abandon(key, fill, err)
		return nil, false, err
	}
	cache.Put(key, r)
	return r, false, nil
}

// emitRecallSpan records the span of a function slot whose result was
// recalled (cache hit or join) rather than injected.
func (inj *Injector) emitRecallSpan(fi *extract.FuncInfo, parent obs.SpanContext, start time.Time, how string) {
	if !inj.tr.Enabled() {
		return
	}
	inj.tr.Emit(parent.Child().Tag(obs.Event{
		Kind:   obs.KindSpan,
		Phase:  "inject",
		Func:   fi.Symbol.Name,
		Detail: how,
		TS:     start.UnixMicro(),
		DurUS:  time.Since(start).Microseconds(),
	}))
}
