// Package membership implements the robust group membership service the
// paper adds to PRESS (§4.2): a variation of the three-round membership
// algorithm of Cristian and Schmuck.
//
// Nodes arrange themselves in a logical ring and monitor their upstream
// and downstream neighbours with heartbeats. Members are added and removed
// through a two-phase commit driven by a coordinator: the detector of a
// failure coordinates the exclusion; a joining node multicasts a join
// request to a well-known group, collects offers from current members,
// and asks one of them to coordinate its admission. Network partitions
// yield independent sub-groups that each make progress; when connectivity
// heals, smaller groups dissolve into better ones through the same join
// path — which is exactly the mechanism that repairs PRESS's splintering
// once the underlying fault is gone.
//
// The daemon is a process of its own (it survives application crashes and
// hangs — the root of the divergent views FME later reconciles). It
// publishes the current group to a shared-memory segment (Published); the
// application links the client library (Client), which polls the segment
// and delivers callbacks, and may hint at dead nodes via NodeDown.
package membership

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"press/internal/clock"
	"press/internal/cnet"
	"press/internal/metrics"
	"press/internal/snapio"
)

// Port and group names.
const (
	Port      = "membd"
	JoinGroup = "memb-join"
)

// Config parameterizes a daemon.
type Config struct {
	Self cnet.NodeID
	// HBPeriod and HBMiss match the paper: heartbeats every 5 s, three
	// consecutive losses declare a neighbour dead.
	HBPeriod time.Duration
	HBMiss   int
	// SeekPeriod is how often a node that believes its group could be
	// bigger multicasts a join request.
	SeekPeriod time.Duration
	// AckTimeout bounds the two-phase commit's first round.
	AckTimeout time.Duration
	// OfferWindow is how long a joiner collects offers before choosing a
	// coordinator.
	OfferWindow time.Duration

	// Gossip switches the daemon from the paper's ring heartbeats +
	// three-round reorganization to the scale-out epidemic mode: each
	// HBPeriod the daemon bumps its own heartbeat counter and pushes a
	// full (node, counter) digest to Fanout random peers; receivers merge
	// counter-wise, so liveness information floods the cluster in
	// O(log N) rounds regardless of size, and no round-based agreement is
	// needed — each daemon's view is simply the set of peers whose
	// counters are still advancing. Splinters and rejoins are implicit:
	// a partition starves the counters on the far side, healing lets
	// them flow again.
	Gossip bool
	// Peers is the static candidate set gossip draws targets from (the
	// cluster's server IDs; self is skipped). Required in gossip mode.
	Peers []cnet.NodeID
	// Fanout is how many peers each round's digest goes to (default 3).
	Fanout int
}

func (c Config) withDefaults() Config {
	if c.HBPeriod <= 0 {
		c.HBPeriod = 5 * time.Second
	}
	if c.HBMiss <= 0 {
		c.HBMiss = 3
	}
	if c.SeekPeriod <= 0 {
		c.SeekPeriod = 2 * c.HBPeriod
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = c.HBPeriod / 2
	}
	if c.OfferWindow <= 0 {
		c.OfferWindow = c.HBPeriod / 10
	}
	if c.Fanout <= 0 {
		c.Fanout = 3
	}
	return c
}

// Published is the shared-memory segment: the daemon writes the group
// view, application-side clients read it. It is shared between processes
// on one machine and outlives application restarts.
type Published struct {
	mu      sync.Mutex
	version uint64
	members []cnet.NodeID
}

// Snapshot returns the current view.
func (p *Published) Snapshot() (uint64, []cnet.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]cnet.NodeID, len(p.members))
	copy(out, p.members)
	return p.version, out
}

func (p *Published) set(version uint64, members []cnet.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.version = version
	p.members = append([]cnet.NodeID(nil), members...)
}

// Wire messages (gob-encodable for livenet).

// MHeartbeat is a ring-neighbour heartbeat. It travels as a pooled
// pointer (see cnet.MsgPool); the receiver releases it.
type MHeartbeat struct {
	From cnet.NodeID
	Ver  uint64

	home *cnet.MsgPool[MHeartbeat]
}

// NewMHeartbeat takes a zeroed heartbeat record from pool.
func NewMHeartbeat(pool *cnet.MsgPool[MHeartbeat]) *MHeartbeat {
	m := pool.Get()
	m.home = pool
	return m
}

// Release recycles the record into its home pool (no-op without one).
func (m *MHeartbeat) Release() {
	if h := m.home; h != nil {
		*m = MHeartbeat{home: h}
		h.Put(m)
	}
}

// MGossip is the epidemic mode's digest: parallel (node, heartbeat
// counter) columns covering every node the sender has heard of. It
// travels as a pooled pointer whose slices keep their capacity across
// recycling, so a steady-state gossip round allocates nothing.
type MGossip struct {
	From   cnet.NodeID
	Nodes  []cnet.NodeID
	Counts []uint64

	home *cnet.MsgPool[MGossip]
}

// NewMGossip takes a digest record from pool (slices emptied, capacity
// retained).
func NewMGossip(pool *cnet.MsgPool[MGossip]) *MGossip {
	m := pool.Get()
	m.home = pool
	return m
}

// Release recycles the record into its home pool (no-op without one).
func (m *MGossip) Release() {
	if h := m.home; h != nil {
		m.From = cnet.None
		m.Nodes = m.Nodes[:0]
		m.Counts = m.Counts[:0]
		h.Put(m)
	}
}

// MJoinReq is multicast by a node seeking a (better) group.
type MJoinReq struct {
	From    cnet.NodeID
	Size    int
	MinID   cnet.NodeID
	Members []cnet.NodeID
}

// MJoinOffer answers a join request with the responder's view.
type MJoinOffer struct {
	From    cnet.NodeID
	Ver     uint64
	Members []cnet.NodeID
}

// MJoinAsk asks the chosen coordinator to run the admission 2PC.
type MJoinAsk struct{ From cnet.NodeID }

// MPrepare is round one of a view change.
type MPrepare struct {
	From    cnet.NodeID
	Ver     uint64
	Members []cnet.NodeID // proposed view
	Subject cnet.NodeID   // the node being added/removed (informational)
	Add     bool
}

// MAck acknowledges a prepare.
type MAck struct {
	From cnet.NodeID
	Ver  uint64
}

// MCommit installs a prepared view.
type MCommit struct {
	From    cnet.NodeID
	Ver     uint64
	Members []cnet.NodeID
}

// MNodeDown is the application's hint (client library NodeDown()).
type MNodeDown struct {
	From cnet.NodeID
	Node cnet.NodeID
}

// Daemon is the membership server process.
type Daemon struct {
	cfg Config           //availlint:skipfield cfg construction config, identical across restores
	env cnet.Env         //availlint:skipfield env process backlink, supplied by the restore constructor
	pub *Published       //availlint:skipfield pub shared segment backlink, supplied by the restore constructor
	src metrics.SourceID //availlint:skipfield src interned tag, rebuilt by the constructor
	// missDetail is the constant heartbeat-miss detect reason, formatted
	// once at construction.
	missDetail string //availlint:skipfield missDetail constant string, rebuilt by the constructor

	version uint64
	members []cnet.NodeID // sorted, includes self

	lastSeen map[cnet.NodeID]time.Duration
	busy     bool
	wait     *ackWait

	offers     []MJoinOffer
	collecting bool

	hbT   clock.Ticker // heartbeat (ring) or gossip-round loop
	seekT clock.Ticker // variable-period seek loop, retimed each pass
	// offerSer is the pending offer-window timer's serial (0: none), and
	// commits the pending 2PC commit timeouts, so a snapshot can re-claim
	// both.
	offerSer uint64
	commits  []*commitTimer

	// hbPool recycles heartbeat records; receivers release them.
	hbPool cnet.MsgPool[MHeartbeat] //availlint:skipfield hbPool message free list; an empty pool after restore is behaviorally identical

	// Epidemic-mode state (Config.Gossip): own and remembered heartbeat
	// counters, the last time fresh evidence arrived for each peer, and
	// the recycled digest/pick scratch.
	counts map[cnet.NodeID]uint64
	gseen  map[cnet.NodeID]time.Duration
	peerOK map[cnet.NodeID]bool //availlint:skipfield peerOK lookup set derived from cfg.Peers, rebuilt by the constructor
	// gossipPool recycles digest records; receivers release them.
	gossipPool cnet.MsgPool[MGossip] //availlint:skipfield gossipPool message free list; an empty pool after restore is behaviorally identical
	pickBuf    []cnet.NodeID         //availlint:skipfield pickBuf per-round target-draw scratch, rebuilt every tick
}

// NewDaemon starts a membership daemon on env, publishing into pub.
func NewDaemon(cfg Config, env cnet.Env, pub *Published) *Daemon {
	d := newDaemon(cfg, env, pub)
	if d.cfg.Gossip {
		// Epidemic mode: no join multicasts, no ring, no 2PC — just the
		// per-round digest push. Convergence is bounded by the flood
		// diameter, so staleness tolerates the Table-1 miss budget plus
		// one full dissemination.
		d.counts = map[cnet.NodeID]uint64{d.cfg.Self: 1}
		d.gseen = map[cnet.NodeID]time.Duration{d.cfg.Self: d.env.Clock().Now()}
		d.install(1, d.members, "boot")
		d.hbT = d.env.Clock().Every(d.cfg.HBPeriod, d.gossipTick)
		return d
	}
	d.env.JoinGroup(JoinGroup)
	d.install(1, d.members, "boot")
	d.hbT = d.env.Clock().Every(d.cfg.HBPeriod, d.tick)
	d.seekLater(true)
	return d
}

// newDaemon builds a daemon and binds its port, scheduling nothing:
// shared by NewDaemon and the snapshot restore path.
func newDaemon(cfg Config, env cnet.Env, pub *Published) *Daemon {
	d := &Daemon{
		cfg:      cfg.withDefaults(),
		env:      env,
		pub:      pub,
		members:  []cnet.NodeID{cfg.Self},
		lastSeen: make(map[cnet.NodeID]time.Duration),
	}
	d.src = metrics.InternSource(fmt.Sprintf("membd/%d", d.cfg.Self))
	if d.cfg.Gossip {
		d.missDetail = fmt.Sprintf("membership: counter stale for %d gossip rounds", d.staleRounds())
		d.peerOK = make(map[cnet.NodeID]bool, len(d.cfg.Peers))
		for _, p := range d.cfg.Peers {
			d.peerOK[p] = true
		}
	} else {
		d.missDetail = fmt.Sprintf("membership: %d heartbeats missed", d.cfg.HBMiss)
	}
	d.env.BindDatagram(Port, d.onMessage)
	return d
}

// Members returns the daemon's current view (tests).
func (d *Daemon) Members() []cnet.NodeID {
	out := make([]cnet.NodeID, len(d.members))
	copy(out, d.members)
	return out
}

// Version returns the current view version.
func (d *Daemon) Version() uint64 { return d.version }

func (d *Daemon) emit(kind metrics.KindID, node cnet.NodeID, detail string) {
	d.env.Events().EmitID(d.env.Clock().Now(), d.src, kind, int(node), detail)
}

func (d *Daemon) isMember(n cnet.NodeID) bool {
	for _, m := range d.members {
		if m == n {
			return true
		}
	}
	return false
}

// neighbours returns the ring neighbours (upstream, downstream).
func (d *Daemon) neighbours() (up, down cnet.NodeID) {
	n := len(d.members)
	if n <= 1 {
		return cnet.None, cnet.None
	}
	idx := sort.Search(n, func(i int) bool { return d.members[i] >= d.cfg.Self })
	return d.members[(idx-1+n)%n], d.members[(idx+1)%n]
}

func (d *Daemon) install(ver uint64, members []cnet.NodeID, why string) {
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	old := d.members
	d.version = ver
	d.members = append([]cnet.NodeID(nil), members...)
	d.pub.set(ver, d.members)
	now := d.env.Clock().Now()
	for _, m := range d.members {
		if !contains(old, m) && m != d.cfg.Self {
			d.emit(metrics.KMemberJoin, m, why)
		}
		d.lastSeen[m] = now // grace for new ring shape
	}
	for _, m := range old {
		if !contains(d.members, m) && m != d.cfg.Self {
			d.emit(metrics.KMemberLeave, m, why)
			delete(d.lastSeen, m)
		}
	}
	d.busy = false
}

func contains(ns []cnet.NodeID, n cnet.NodeID) bool {
	for _, m := range ns {
		if m == n {
			return true
		}
	}
	return false
}

func (d *Daemon) tick() {
	up, down := d.neighbours()
	now := d.env.Clock().Now()
	for _, nb := range []cnet.NodeID{up, down} {
		if nb == cnet.None || nb == d.cfg.Self {
			continue
		}
		hb := NewMHeartbeat(&d.hbPool)
		hb.From, hb.Ver = d.cfg.Self, d.version
		d.env.Send(nb, cnet.ClassIntra, Port, hb, 48)
		deadline := time.Duration(d.cfg.HBMiss) * d.cfg.HBPeriod
		if seen, ok := d.lastSeen[nb]; ok && now-seen > deadline {
			d.emit(metrics.KDetect, nb, d.missDetail)
			d.startExclusion(nb)
		}
	}
}

// staleRounds is the gossip liveness budget in rounds: the ring mode's
// miss count plus ceil(log2 N) rounds for a counter increment to flood
// the cluster through bounded-fanout pushes.
func (d *Daemon) staleRounds() int {
	r := d.cfg.HBMiss
	for n := 1; n < len(d.cfg.Peers); n *= 2 {
		r++
	}
	return r
}

// gossipTick runs one epidemic round: bump our own counter, push the
// full digest to Fanout distinct random peers, and refresh the derived
// view. Target draws come from the env's deterministic stream; the
// digest is built by walking the static sorted peer list, never by
// ranging a map.
func (d *Daemon) gossipTick() {
	d.counts[d.cfg.Self]++
	d.gseen[d.cfg.Self] = d.env.Clock().Now()
	d.pickBuf = d.pickBuf[:0]
	for _, p := range d.cfg.Peers {
		if p != d.cfg.Self {
			d.pickBuf = append(d.pickBuf, p)
		}
	}
	rng := d.env.Rand()
	k := d.cfg.Fanout
	if k > len(d.pickBuf) {
		k = len(d.pickBuf)
	}
	for i := 0; i < k; i++ {
		// Partial Fisher-Yates: the first k slots become a uniform draw of
		// k distinct targets.
		j := i + rng.Intn(len(d.pickBuf)-i)
		d.pickBuf[i], d.pickBuf[j] = d.pickBuf[j], d.pickBuf[i]
		g := NewMGossip(&d.gossipPool)
		g.From = d.cfg.Self
		for _, p := range d.cfg.Peers {
			if c, ok := d.counts[p]; ok {
				g.Nodes = append(g.Nodes, p)
				g.Counts = append(g.Counts, c)
			}
		}
		d.env.Send(d.pickBuf[i], cnet.ClassIntra, Port, g, 48+12*len(g.Nodes))
	}
	d.recompute()
}

// mergeGossip folds a received digest into our counters: a strictly
// larger counter is fresh evidence for that node. Receiving our own
// counter from the future means we restarted behind the cluster's
// memory of us — jump past it so peers see a new incarnation. The
// sender itself is directly evidenced by the message's arrival.
func (d *Daemon) mergeGossip(msg *MGossip) {
	now := d.env.Clock().Now()
	for i, n := range msg.Nodes {
		if !d.peerOK[n] {
			continue
		}
		c := msg.Counts[i]
		if n == d.cfg.Self {
			if c > d.counts[n] {
				d.counts[n] = c + 1
			}
			continue
		}
		if c > d.counts[n] {
			d.counts[n] = c
			d.gseen[n] = now
		}
	}
	if d.peerOK[msg.From] && msg.From != d.cfg.Self {
		d.gseen[msg.From] = now
	}
	d.recompute()
}

// recompute derives the gossip-mode view: self plus every peer whose
// evidence is within the staleness deadline. A changed view is
// installed through the same path ring mode uses, so version numbers,
// the published segment and join/leave events behave identically.
func (d *Daemon) recompute() {
	now := d.env.Clock().Now()
	deadline := time.Duration(d.staleRounds()) * d.cfg.HBPeriod
	next := make([]cnet.NodeID, 0, len(d.members))
	for _, p := range d.cfg.Peers {
		if p == d.cfg.Self {
			next = append(next, p)
			continue
		}
		if seen, ok := d.gseen[p]; ok && now-seen <= deadline {
			next = append(next, p)
		}
	}
	if sameView(next, d.members) {
		return
	}
	for _, m := range d.members {
		if m != d.cfg.Self && !contains(next, m) {
			d.emit(metrics.KDetect, m, d.missDetail)
			delete(d.gseen, m)
		}
	}
	d.install(d.version+1, next, "gossip")
}

// sameView reports whether two sorted member lists are identical.
func sameView(a, b []cnet.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SaveGossip serializes the epidemic-mode state: the installed view and
// the counter/evidence tables, walked in sorted node order so the blob
// is deterministic. The round ticker is saved by SaveState.
func (d *Daemon) SaveGossip(e *snapio.Encoder) {
	e.U64(d.version)
	e.Int(len(d.members))
	for _, m := range d.members {
		e.I64(int64(m))
	}
	e.Int(len(d.counts))
	for _, p := range sortedNodeKeys(d.counts) {
		e.I64(int64(p))
		e.U64(d.counts[p])
	}
	e.Int(len(d.gseen))
	for _, p := range sortedNodeKeys(d.gseen) {
		e.I64(int64(p))
		e.Dur(d.gseen[p])
	}
}

// sortedNodeKeys returns m's keys in ascending order, for deterministic
// snapshot walks over the gossip tables.
func sortedNodeKeys[V any](m map[cnet.NodeID]V) []cnet.NodeID {
	ids := make([]cnet.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// LoadGossip restores the state SaveGossip captured into a freshly
// constructed gossip daemon and republishes the view.
func (d *Daemon) LoadGossip(dec *snapio.Decoder) {
	d.version = dec.U64()
	d.members = d.members[:0]
	for n := dec.Count(1 << 16); n > 0; n-- {
		d.members = append(d.members, cnet.NodeID(dec.I64()))
	}
	d.pub.set(d.version, d.members)
	nc := dec.Count(1 << 16)
	d.counts = make(map[cnet.NodeID]uint64, nc)
	for i := 0; i < nc; i++ {
		id := cnet.NodeID(dec.I64())
		d.counts[id] = dec.U64()
	}
	ns := dec.Count(1 << 16)
	d.gseen = make(map[cnet.NodeID]time.Duration, ns)
	for i := 0; i < ns; i++ {
		id := cnet.NodeID(dec.I64())
		d.gseen[id] = dec.Dur()
	}
}

// startExclusion coordinates the two-phase removal of n.
func (d *Daemon) startExclusion(n cnet.NodeID) {
	if d.busy || !d.isMember(n) || n == d.cfg.Self {
		return
	}
	var next []cnet.NodeID
	for _, m := range d.members {
		if m != n {
			next = append(next, m)
		}
	}
	d.runChange(next, n, false)
}

// runChange runs the 2PC for a proposed view.
func (d *Daemon) runChange(proposed []cnet.NodeID, subject cnet.NodeID, add bool) {
	d.busy = true
	ver := d.version + 1
	prep := MPrepare{From: d.cfg.Self, Ver: ver, Members: proposed, Subject: subject, Add: add}
	acked := map[cnet.NodeID]bool{d.cfg.Self: true}
	need := 0
	for _, m := range proposed {
		if m != d.cfg.Self {
			need++
			d.env.Send(m, cnet.ClassIntra, Port, prep, 64+4*len(proposed))
		}
	}
	d.expectAcks(ver, proposed, acked, need, subject, add)
}

// ackWait tracks one in-flight 2PC at the coordinator.
type ackWait struct {
	ver      uint64
	proposed []cnet.NodeID
	acked    map[cnet.NodeID]bool
	need     int
	subject  cnet.NodeID
	add      bool
}

// commitTimer is one pending 2PC commit timeout. It outlives its round
// when the acks complete first, and then fires as a no-op.
type commitTimer struct {
	d       *Daemon //availlint:skipfield d owner backlink, set by the restoring daemon
	serial  uint64
	ver     uint64
	subject cnet.NodeID
	add     bool
}

func (ct *commitTimer) fire() {
	d := ct.d
	for i, p := range d.commits {
		if p == ct {
			d.commits = append(d.commits[:i], d.commits[i+1:]...)
			break
		}
	}
	d.commit(ct.ver, ct.subject, ct.add)
}

func (d *Daemon) expectAcks(ver uint64, proposed []cnet.NodeID, acked map[cnet.NodeID]bool, need int, subject cnet.NodeID, add bool) {
	d.wait = &ackWait{ver: ver, proposed: proposed, acked: acked, need: need, subject: subject, add: add}
	if need == 0 {
		d.commit(ver, subject, add)
		return
	}
	ct := &commitTimer{d: d, ver: ver, subject: subject, add: add}
	ct.serial = clock.Schedule(d.env.Clock(), d.cfg.AckTimeout, ct.fire)
	d.commits = append(d.commits, ct)
}

// commit installs round ver's view, unless that round already ended.
func (d *Daemon) commit(ver uint64, subject cnet.NodeID, add bool) {
	if d.wait == nil || d.wait.ver != ver {
		return
	}
	w := d.wait
	d.wait = nil
	// Commit to everyone who acked; the silent ones will be detected
	// and excluded by heartbeat monitoring in due course.
	var final []cnet.NodeID
	for _, m := range w.proposed {
		if w.acked[m] {
			final = append(final, m)
		}
	}
	cm := MCommit{From: d.cfg.Self, Ver: ver, Members: final}
	for _, m := range final {
		if m != d.cfg.Self {
			d.env.Send(m, cnet.ClassIntra, Port, cm, 64+4*len(final))
		}
	}
	what := "exclude"
	if add {
		what = "admit"
	}
	d.install(ver, final, fmt.Sprintf("%s %d (coordinator)", what, subject))
}

func (d *Daemon) onMessage(from cnet.NodeID, m cnet.Message) {
	switch msg := m.(type) {
	case *MHeartbeat:
		d.lastSeen[msg.From] = d.env.Clock().Now()
		msg.Release()
	case *MGossip:
		d.mergeGossip(msg)
		msg.Release()
	case MNodeDown:
		if d.cfg.Gossip {
			if d.isMember(msg.Node) && msg.Node != d.cfg.Self {
				d.emit(metrics.KDetect, msg.Node, "application NodeDown hint")
				delete(d.gseen, msg.Node)
				d.recompute()
			}
			return
		}
		if d.isMember(msg.Node) {
			d.emit(metrics.KDetect, msg.Node, "application NodeDown hint")
			d.startExclusion(msg.Node)
		}
	case MPrepare:
		if msg.Ver <= d.version {
			return // stale proposal
		}
		d.env.Send(msg.From, cnet.ClassIntra, Port, MAck{From: d.cfg.Self, Ver: msg.Ver}, 48)
	case MAck:
		if d.wait != nil && d.wait.ver == msg.Ver && !d.wait.acked[msg.From] {
			d.wait.acked[msg.From] = true
			d.wait.need--
			if d.wait.need <= 0 {
				d.commit(d.wait.ver, d.wait.subject, d.wait.add)
			}
		}
	case MCommit:
		if msg.Ver <= d.version {
			return
		}
		if !contains(msg.Members, d.cfg.Self) {
			return // a view without us is not ours to install
		}
		d.install(msg.Ver, msg.Members, fmt.Sprintf("commit from %d", msg.From))
	case MJoinReq:
		d.onJoinReq(msg)
	case MJoinOffer:
		if d.collecting {
			d.offers = append(d.offers, msg)
		}
	case MJoinAsk:
		if d.busy || d.isMember(msg.From) {
			return
		}
		d.runChange(append(append([]cnet.NodeID(nil), d.members...), msg.From), msg.From, true)
	}
}

// onJoinReq answers a seeker when our group would be better for it.
func (d *Daemon) onJoinReq(msg MJoinReq) {
	if d.isMember(msg.From) {
		return
	}
	if !betterGroup(d.members, msg.Members) {
		return
	}
	d.env.Send(msg.From, cnet.ClassIntra, Port,
		MJoinOffer{From: d.cfg.Self, Ver: d.version, Members: d.Members()}, 64+4*len(d.members))
}

// betterGroup reports whether group a is preferable to group b: strictly
// larger, or equal-sized with a lower minimum ID. The asymmetry guarantees
// convergence to a single group after partitions heal.
func betterGroup(a, b []cnet.NodeID) bool {
	if len(a) != len(b) {
		return len(a) > len(b)
	}
	if len(a) == 0 {
		return false
	}
	return minID(a) < minID(b)
}

func minID(ns []cnet.NodeID) cnet.NodeID {
	min := ns[0]
	for _, n := range ns {
		if n < min {
			min = n
		}
	}
	return min
}

func (d *Daemon) seekLater(fast bool) {
	period := d.cfg.SeekPeriod
	if fast || len(d.members) == 1 {
		period = d.cfg.SeekPeriod / 4
	}
	if d.seekT == nil {
		d.seekT = d.env.Clock().Every(period, d.seek)
		return
	}
	// Inside seek's deferred rearm: replaces the ticker's automatic rearm
	// with the period chosen for the current group size.
	d.seekT.Reschedule(period)
}

// seek multicasts a join request and, after the offer window, asks the
// best offering member to admit us.
func (d *Daemon) seek() {
	defer d.seekLater(false)
	if d.busy || d.collecting {
		return
	}
	d.collecting = true
	d.offers = nil
	d.env.Multicast(JoinGroup, Port, MJoinReq{
		From:    d.cfg.Self,
		Size:    len(d.members),
		MinID:   minID(d.members),
		Members: d.Members(),
	}, 64+4*len(d.members))
	d.offerSer = clock.Schedule(d.env.Clock(), d.cfg.OfferWindow, d.closeOffers)
}

// closeOffers ends the offer window and asks the best offering member
// to admit us.
func (d *Daemon) closeOffers() {
	d.offerSer = 0
	d.collecting = false
	best := -1
	for i, off := range d.offers {
		if !betterGroup(off.Members, d.members) {
			continue
		}
		if best == -1 || betterGroup(d.offers[i].Members, d.offers[best].Members) {
			best = i
		}
	}
	if best == -1 {
		return
	}
	d.env.Send(d.offers[best].From, cnet.ClassIntra, Port, MJoinAsk{From: d.cfg.Self}, 48)
}

// Client is the application-side library (§4.2): it polls the shared
// segment and calls the application back with view updates, and lets the
// application hint at dead nodes.
type Client struct {
	env   cnet.Env                      //availlint:skipfield env process backlink, supplied by the restore constructor
	pub   *Published                    //availlint:skipfield pub shared segment backlink, supplied by the restore constructor
	poll  time.Duration                 //availlint:skipfield poll construction config, identical across restores
	subs  []func(members []cnet.NodeID) //availlint:skipfield subs callbacks, re-subscribed by the restoring application
	pollT clock.Ticker
}

// NewClient attaches a client to the local node's published view.
func NewClient(env cnet.Env, pub *Published, poll time.Duration) *Client {
	if poll <= 0 {
		poll = time.Second
	}
	c := &Client{env: env, pub: pub, poll: poll}
	c.pollT = c.env.Clock().Every(c.poll, c.pollTick)
	return c
}

// Subscribe registers a callback invoked on every poll with the current
// member list. It satisfies server.MembershipView.
func (c *Client) Subscribe(fn func(members []cnet.NodeID)) {
	c.subs = append(c.subs, fn)
}

// NodeDown forwards the application's down-hint to the local daemon.
func (c *Client) NodeDown(n cnet.NodeID) {
	c.env.Send(c.env.Local(), cnet.ClassIntra, Port, MNodeDown{From: c.env.Local(), Node: n}, 48)
}

func (c *Client) pollTick() {
	_, members := c.pub.Snapshot()
	for _, fn := range c.subs {
		fn(members)
	}
}
