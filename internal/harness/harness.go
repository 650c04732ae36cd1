// Package harness assembles and runs the paper's experiments end to end:
// it composes every studied server version (§3–§6) from the substrate and
// subsystem packages, calibrates the 90%-of-saturation offered load,
// executes single-fault injection episodes, extracts 7-stage templates,
// feeds the phase-2 model, and renders every table and figure of the
// evaluation (see DESIGN.md's per-experiment index).
package harness

import (
	"fmt"
	"time"

	"press/internal/cnet"
	"press/internal/faults"
	"press/internal/fme"
	"press/internal/frontend"
	"press/internal/machine"
	"press/internal/membership"
	"press/internal/metrics"
	"press/internal/qmon"
	"press/internal/server"
	"press/internal/sim"
	"press/internal/simdisk"
	"press/internal/simnet"
	"press/internal/snapio"
	"press/internal/trace"
	"press/internal/workload"
)

// Version names one studied configuration.
type Version string

// The paper's configurations (§3, §4, §6).
const (
	VINDEP    Version = "INDEP"      // independent servers, DNS round-robin
	VFEXINDEP Version = "FE-X-INDEP" // independent + front-end pair + extra node
	VCOOP     Version = "COOP"       // base cooperative PRESS
	VFEX      Version = "FE-X"       // COOP + front-end pair + extra node
	VMEM      Version = "MEM"        // FE-X + group membership (ring detector off)
	VQMON     Version = "QMON"       // FE-X + queue monitoring (ring detector off)
	VMQ       Version = "MQ"         // FE-X + membership + queue monitoring
	VFME      Version = "FME"        // MQ + fault model enforcement
	VSFME     Version = "S-FME"      // FME + global cooperation-set masking
	VCMON     Version = "C-MON"      // S-FME + 2s TCP connection monitoring
	VXSW      Version = "X-SW"       // C-MON + backup switch (modeled)
	VXSWRAID  Version = "X-SW+RAID"  // X-SW + per-node RAID (modeled)
)

// ProtocolSuite selects which family of intra-cluster protocols a built
// world runs. The zero value is the paper-faithful suite, so existing
// Options literals, memo keys and golden dumps are untouched.
type ProtocolSuite int

const (
	// Faithful runs the paper's protocols exactly as studied at 4 nodes:
	// broadcast cache-directory announcements, ring heartbeats with an
	// exclusion broadcast, and the three-round Cristian/Schmuck
	// membership reorganization. O(N) or worse per event — fine at the
	// studied scale, byte-identical to every golden dump.
	Faithful ProtocolSuite = iota
	// Scalable swaps the all-to-all protocols for bounded-fanout ones so
	// the same stack honestly simulates large clusters: gossip membership
	// (epidemic digest dissemination instead of ring + 2PC), a
	// hash-partitioned cache directory (per-shard announce and relay
	// instead of cluster-wide broadcast), and document-hash request
	// routing at the front end.
	Scalable
)

func (p ProtocolSuite) String() string {
	switch p {
	case Faithful:
		return "faithful"
	case Scalable:
		return "scalable"
	default:
		return fmt.Sprintf("ProtocolSuite(%d)", int(p))
	}
}

// ParseProtocolSuite maps the CLI spelling onto the suite constant.
func ParseProtocolSuite(s string) (ProtocolSuite, error) {
	switch s {
	case "", "faithful":
		return Faithful, nil
	case "scalable":
		return Scalable, nil
	default:
		return Faithful, fmt.Errorf("unknown protocol suite %q (want faithful or scalable)", s)
	}
}

// traits captures what a version is made of.
type traits struct {
	cooperative bool
	ring        bool
	fe          bool
	extraNode   bool
	memb        bool
	qmon        bool
	fme         bool
	sfme        bool
	cmon        bool
}

func versionTraits(v Version) traits {
	switch v {
	case VINDEP:
		return traits{}
	case VFEXINDEP:
		return traits{fe: true, extraNode: true}
	case VCOOP:
		return traits{cooperative: true, ring: true}
	case VFEX:
		return traits{cooperative: true, ring: true, fe: true, extraNode: true}
	case VMEM:
		return traits{cooperative: true, fe: true, extraNode: true, memb: true}
	case VQMON:
		return traits{cooperative: true, fe: true, extraNode: true, qmon: true}
	case VMQ:
		return traits{cooperative: true, fe: true, extraNode: true, memb: true, qmon: true}
	case VFME:
		return traits{cooperative: true, fe: true, extraNode: true, memb: true, qmon: true, fme: true}
	case VSFME:
		return traits{cooperative: true, fe: true, extraNode: true, memb: true, qmon: true, fme: true, sfme: true}
	case VCMON, VXSW, VXSWRAID:
		return traits{cooperative: true, fe: true, extraNode: true, memb: true, qmon: true, fme: true, sfme: true, cmon: true}
	default:
		panic("harness: unknown version " + string(v))
	}
}

// HasFrontend reports whether the version includes the front-end tier.
func (v Version) HasFrontend() bool { return versionTraits(v).fe }

// Cooperative reports whether the version runs cooperative PRESS.
func (v Version) Cooperative() bool { return versionTraits(v).cooperative }

// HasFME reports whether the version runs the fault model enforcement
// daemon (the chaos FME-bound invariant only applies to these).
func (v Version) HasFME() bool { return versionTraits(v).fme }

// AllMeasuredVersions lists the configurations the harness actually
// builds and fault-injects (the rest are modeled from these).
func AllMeasuredVersions() []Version {
	return []Version{VINDEP, VFEXINDEP, VCOOP, VFEX, VMEM, VQMON, VMQ, VFME, VSFME, VCMON}
}

// Options parameterizes an experiment world. Zero values take the
// paper-faithful defaults (scaled to simulation time).
type Options struct {
	Seed       int64
	Nodes      int   // base server count (4)
	CacheBytes int64 // per-node file cache (128 MB)

	// Rate is the offered load; 0 means "90% of this version's measured
	// 4-node saturation" per §5, resolved via Saturation().
	Rate float64

	// Warmup is the load ramp span (§5: warm up to peak over 5 minutes).
	Warmup time.Duration

	// Heartbeat / probe cadences (§5).
	HeartbeatPeriod time.Duration

	// OperatorResponse is the phase-2 stage-E parameter.
	OperatorResponse time.Duration

	// RedundantFE builds the front-end as a primary/standby pair with IP
	// takeover (the configuration §4.1 models; here it actually runs).
	RedundantFE bool

	// Docs/Alpha override the synthetic trace (0 = defaults).
	Docs  int
	Alpha float64

	// Mod layers a deterministic time-varying shape (diurnal curve,
	// flash-crowd spike) on the offered load; zero value = the paper's
	// stationary load. Pure function of elapsed time, so it composes
	// with snapshots and byte-identical replay unchanged.
	Mod trace.Modulation

	// Protocol selects the intra-cluster protocol suite. The zero value
	// (Faithful) is the paper's 4-node protocols, byte-identical to the
	// golden dumps; Scalable swaps in the bounded-fanout variants for
	// large-N worlds.
	Protocol ProtocolSuite
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Nodes == 0 {
		o.Nodes = 4
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 128 << 20
	}
	if o.Warmup == 0 {
		o.Warmup = 5 * time.Minute
	}
	if o.HeartbeatPeriod == 0 {
		o.HeartbeatPeriod = 5 * time.Second
	}
	if o.OperatorResponse == 0 {
		o.OperatorResponse = 30 * time.Minute
	}
	if o.Docs == 0 {
		o.Docs = trace.DefaultDocs
	}
	if o.Alpha == 0 {
		o.Alpha = trace.DefaultAlpha
	}
	return o
}

func (o Options) catalog() *trace.Catalog {
	return trace.NewCatalog(o.Docs, trace.DefaultSize, o.Alpha)
}

// ServerCount returns how many server nodes the version builds with the
// given options (the extra-capacity node included when present).
func ServerCount(v Version, o Options) int {
	return serverCount(v, o.withDefaults())
}

// serverCount includes the extra-capacity node when present.
func serverCount(v Version, o Options) int {
	n := o.Nodes
	if versionTraits(v).extraNode {
		n++
	}
	return n
}

// Topology is the single accessor for a built world's node layout: how
// many server nodes exist, their IDs, how they group into racks, which
// protocol suite they speak, and whether a front-end tier fronts them.
// Every place that used to assume the paper's fixed 4-node shape (chaos
// component ranges, correlated-fault rack draws, scaling arithmetic)
// derives from this instead of hard-coding literals.
type Topology struct {
	Version  Version
	Nodes    int // server nodes, extra-capacity node included
	RackSize int // consecutive nodes sharing a switch/power domain
	Protocol ProtocolSuite
	Frontend bool
}

// DefaultRackSize is how many consecutive nodes share one rack (switch
// and power domain) unless a generator overrides it.
const DefaultRackSize = 2

// NewTopology resolves the topology for (version, options).
func NewTopology(v Version, o Options) Topology {
	o = o.withDefaults()
	return Topology{
		Version:  v,
		Nodes:    serverCount(v, o),
		RackSize: DefaultRackSize,
		Protocol: o.Protocol,
		Frontend: versionTraits(v).fe,
	}
}

// ServerIDs returns the server node IDs, 0..Nodes-1.
func (t Topology) ServerIDs() []cnet.NodeID {
	ids := make([]cnet.NodeID, t.Nodes)
	for i := range ids {
		ids[i] = cnet.NodeID(i)
	}
	return ids
}

// Scalable front-end tier sizing: the paper's front-end is provisioned
// for the 4-node cluster (its 500µs relay cost caps one machine at
// 2000 req/s), so a wide cluster gets one front-end per feShardNodes
// servers, numbered from feScaleBase clear of the server ID range, and
// clients stripe over the tier round-robin (DNS-style).
const (
	feShardNodes             = 32
	feScaleBase  cnet.NodeID = 10000
)

// FrontendIDs returns the node IDs of the front-end tier: none without
// one, the paper's single front-end (ID 90) for the faithful shape, and
// ceil(n/feShardNodes) scalable front-ends once one machine's relay
// capacity no longer covers the cluster's offered load.
func (t Topology) FrontendIDs() []cnet.NodeID {
	if !t.Frontend {
		return nil
	}
	k := 1
	if t.Protocol == Scalable {
		k = (t.Nodes + feShardNodes - 1) / feShardNodes
	}
	if k <= 1 {
		return []cnet.NodeID{feNodeID}
	}
	ids := make([]cnet.NodeID, k)
	for i := range ids {
		ids[i] = feScaleBase + cnet.NodeID(i)
	}
	return ids
}

// Racks returns how many racks the servers occupy.
func (t Topology) Racks() int {
	if t.RackSize <= 0 || t.Nodes <= 0 {
		return 0
	}
	return (t.Nodes + t.RackSize - 1) / t.RackSize
}

// GossipFanout is how many peers each gossip round's digest goes to in
// the Scalable membership mode.
const GossipFanout = 3

// Node IDs: servers 0..n-1; front-end 90 (backup 91, virtual address 89);
// client driver 1000.
const (
	feVIP        cnet.NodeID = 89
	feNodeID     cnet.NodeID = 90
	feBackupID   cnet.NodeID = 91
	clientNodeID cnet.NodeID = 1000
)

// Cluster is one built experiment world.
type Cluster struct {
	Version Version
	Opts    Options
	Traits  traits

	Sim      *sim.Sim
	Net      *simnet.Network
	Log      *metrics.Log
	Catalog  *trace.Catalog
	Machines []*machine.Machine // server nodes
	// FEMachines is the front-end tier: one machine for the faithful
	// shape, ceil(N/32) for wide scalable clusters. FEMachines[0] is
	// always FEMach. Nil without a front-end.
	FEMachines []*machine.Machine
	FEMach     *machine.Machine // nil without front-end
	FEBackup   *machine.Machine // nil unless Options.RedundantFE
	Injector   *faults.Injector

	Rec *workload.Recorder
	Gen *workload.Generator

	servers []**server.Server
	srvCfgs []server.Config
	// Per server node, for versions with membership: the shared view
	// segment, the daemon and the application's client library, and the
	// daemon config; with FME, the daemon and its config.
	pubs     []*membership.Published
	membds   []**membership.Daemon
	clients  []**membership.Client
	membCfgs []membership.Config
	fmes     []**fme.Daemon
	fmeCfgs  []fme.Config
	fe       **frontend.Frontend
	fes      []**frontend.Frontend // one per FEMachines entry; fes[0] == fe
	feCfgs   []frontend.Config     // one per FEMachines entry
	feb      **frontend.Frontend
	standby  **frontend.Standby

	genTargets []cnet.NodeID
	offered    float64
}

// Offered returns the offered load the cluster was built with.
func (c *Cluster) Offered() float64 { return c.offered }

// Server returns node i's current server incarnation (nil while crashed).
func (c *Cluster) Server(i int) *server.Server { return *c.servers[i] }

// Frontend returns the front-end currently holding the service address
// (the backup after an IP takeover), or nil without one.
func (c *Cluster) Frontend() *frontend.Frontend {
	if c.standby != nil && *c.standby != nil && (*c.standby).Active() {
		return *c.feb
	}
	if c.fe == nil {
		return nil
	}
	return *c.fe
}

// activeFEMachine returns the machine behind the service address.
func (c *Cluster) activeFEMachine() *machine.Machine {
	if c.standby != nil && *c.standby != nil && (*c.standby).Active() {
		return c.FEBackup
	}
	return c.FEMach
}

// membPoll is how often the application's membership client reads the
// shared view segment.
const membPoll = time.Second

// fmeControl adapts a machine to fme.Control.
type fmeControl struct {
	s *sim.Sim
	m *machine.Machine
}

func (c fmeControl) TakeOffline(reason string) { c.m.TakeOffline(reason) }

func (c fmeControl) RestartApp() {
	c.m.KillProc("press")
	c.s.AfterArg(fmeRestartDelay, restartPress, c.m)
}

// fmeRestartDelay is how long an FME-killed server stays down.
const fmeRestartDelay = 10 * time.Second

// restartPress is the kernel callback of an FME restart (arg: the
// *machine.Machine), claimable by snapshots.
func restartPress(arg any) { arg.(*machine.Machine).StartProc("press") }

// Build assembles a cluster for the given version on the default engine.
func Build(v Version, o Options) *Cluster { return defaultEngine.Build(v, o) }

// Build assembles a cluster for the given version. rate <= 0 uses
// Options.Rate (which itself may be auto-resolved by higher layers);
// the auto-resolving saturation probe is memoized on this engine.
func (e *Engine) Build(v Version, o Options) *Cluster {
	o = o.withDefaults()
	c := buildWorld(v, o, false)
	rate := o.Rate
	if rate <= 0 {
		rate = 0.9 * e.Saturation(v, o)
	}
	c.attachWorkload(rate)
	return c
}

// buildWorld constructs the topology: simulator, network, machines,
// processes, injector — everything except the load generator. cold
// registers processes without booting them (the snapshot restore path:
// the rehydrated state arrives afterwards, and a virgin kernel must see
// no stray boot events).
func buildWorld(v Version, o Options, cold bool) *Cluster {
	t := versionTraits(v)
	addProc := func(m *machine.Machine, name string, start func(*machine.Env)) {
		if cold {
			m.AddProcCold(name, start)
		} else {
			m.AddProc(name, start)
		}
	}
	s := sim.New(o.Seed)
	log := &metrics.Log{}
	scalable := o.Protocol == Scalable
	netCfg := simnet.DefaultConfig()
	// Gossip fan-outs dominate the kernel event count at wide N; coalescing
	// them keeps the schedule (and EventsFired) identical while popping one
	// event per multicast instead of one per recipient. Faithful runs keep
	// the unbatched path so their golden dumps stay byte-identical.
	netCfg.BatchDelivery = scalable
	net := simnet.New(s, netCfg, log)
	cat := o.catalog()

	topo := NewTopology(v, o)
	n := topo.Nodes
	ids := topo.ServerIDs()

	c := &Cluster{
		Version: v, Opts: o, Traits: t,
		Sim: s, Net: net, Log: log, Catalog: cat,
	}

	diskCfg := simdisk.DefaultConfig()
	for i := 0; i < n; i++ {
		i := i
		disks := simdisk.NewArray(s, s.NewRand(fmt.Sprintf("disks/%d", i)), diskCfg, 2)
		m := machine.New(s, net, ids[i], disks, log)
		c.Machines = append(c.Machines, m)

		var pub *membership.Published
		client := new(*membership.Client)
		if t.memb {
			pub = &membership.Published{}
			membCfg := membership.Config{
				Self:     ids[i],
				HBPeriod: o.HeartbeatPeriod,
				HBMiss:   3,
				Gossip:   scalable,
				Peers:    ids,
				Fanout:   GossipFanout,
			}
			membd := new(*membership.Daemon)
			addProc(m, "membd", func(env *machine.Env) {
				*membd = membership.NewDaemon(membCfg, env, pub)
			})
			c.pubs = append(c.pubs, pub)
			c.membds = append(c.membds, membd)
			c.clients = append(c.clients, client)
			c.membCfgs = append(c.membCfgs, membCfg)
		}
		if t.fe {
			addProc(m, "icmp", func(env *machine.Env) { frontend.NewPingResponder(env) })
		}

		holder := new(*server.Server)
		c.servers = append(c.servers, holder)
		cfg := server.Config{
			Self:            ids[i],
			Nodes:           ids,
			Cooperative:     t.cooperative,
			RingDetector:    t.ring,
			Sharded:         scalable && t.cooperative,
			HeartbeatPeriod: o.HeartbeatPeriod,
			HeartbeatMiss:   3,
			CacheBytes:      o.CacheBytes,
			Catalog:         cat,
		}
		if t.qmon {
			qc := qmon.DefaultConfig()
			cfg.QMon = &qc
		}
		c.srvCfgs = append(c.srvCfgs, cfg)
		addProc(m, "press", func(env *machine.Env) {
			var mv server.MembershipView
			if pub != nil {
				*client = membership.NewClient(env, pub, membPoll)
				mv = *client
			}
			*holder = server.New(cfg, env, disks, mv)
		})

		if t.fme {
			fmeCfg := fme.Config{
				Self:        ids[i],
				ProbePeriod: o.HeartbeatPeriod,
			}
			fmed := new(*fme.Daemon)
			addProc(m, "fme", func(env *machine.Env) {
				*fmed = fme.NewDaemon(fmeCfg, env, disks, fmeControl{s: s, m: m})
			})
			c.fmes = append(c.fmes, fmed)
			c.fmeCfgs = append(c.fmeCfgs, fmeCfg)
		}
	}

	targets := ids
	if t.fe {
		mkFECfg := func(self cnet.NodeID) frontend.Config {
			fc := frontend.Config{
				Self:       self,
				Backends:   ids,
				PingPeriod: o.HeartbeatPeriod,
				PingMiss:   3,
				SFME:       t.sfme,
				ShardRoute: scalable,
			}
			if t.cmon {
				fc.ConnMonitor = true
				fc.ConnPeriod = time.Second
				fc.ConnDeadline = 2 * time.Second
			}
			return fc
		}
		// One front-end for the faithful shape; a tier of them for wide
		// scalable clusters, with the client generator striping over the
		// tier round-robin (see FrontendIDs).
		feIDs := topo.FrontendIDs()
		for _, fid := range feIDs {
			feCfg := mkFECfg(fid)
			m := machine.New(s, net, fid, nil, log)
			holder := new(*frontend.Frontend)
			addProc(m, "frontend", func(env *machine.Env) {
				*holder = frontend.New(feCfg, env)
			})
			c.FEMachines = append(c.FEMachines, m)
			c.fes = append(c.fes, holder)
			c.feCfgs = append(c.feCfgs, feCfg)
		}
		c.FEMach = c.FEMachines[0]
		c.fe = c.fes[0]
		targets = feIDs

		if o.RedundantFE && len(feIDs) == 1 {
			// Primary/standby pair behind a virtual address (§4.1's
			// "redundant front-end, heartbeats, and IP take-over").
			// The scalable multi-front-end tier has no pairing: its
			// redundancy is the tier itself.
			net.SetAlias(feVIP, feNodeID)
			addProc(c.FEMach, "fepair", func(env *machine.Env) { frontend.NewPairResponder(env) })
			c.FEBackup = machine.New(s, net, feBackupID, nil, log)
			c.feb = new(*frontend.Frontend)
			c.standby = new(*frontend.Standby)
			backupCfg := mkFECfg(feBackupID)
			addProc(c.FEBackup, "frontend", func(env *machine.Env) {
				*c.feb = frontend.New(backupCfg, env)
			})
			addProc(c.FEBackup, "standby", func(env *machine.Env) {
				*c.standby = frontend.NewStandby(frontend.StandbyConfig{
					Self:     feBackupID,
					Primary:  feNodeID,
					HBPeriod: time.Second,
				}, env, takeoverControl{c})
			})
			targets = []cnet.NodeID{feVIP}
		}
	}

	c.Injector = faults.NewInjector(s, log, faults.Targets{
		Net:      net,
		Machines: c.Machines,
		Frontend: c.FEMach,
		AppProc:  "press",
	})

	c.genTargets = targets
	return c
}

// attachWorkload finishes a built world with its load generator at the
// resolved offered rate.
func (c *Cluster) attachWorkload(rate float64) {
	c.offered = rate
	c.Rec = workload.NewRecorder()
	c.Gen = workload.NewGenerator(c.Sim, c.Net, clientNodeID, workload.Config{
		Rate:    rate,
		Targets: c.genTargets,
		Catalog: c.Catalog,
		RampUp:  c.Opts.Warmup,
		Mod:     c.Opts.Mod,
	}, c.Rec)
}

// snapshotSupported reports whether the snapshot engine covers a
// version: everything up to FME — front-end tier, membership (ring and
// gossip), queue monitoring and the FME daemon. The redundant front-end
// pair and the S-FME / C-MON connection probes run on closures and keep
// the cold path.
func snapshotSupported(t traits, o Options) bool {
	return !t.sfme && !t.cmon && !o.RedundantFE
}

// BuildForRestore constructs a cold world ready for RestoreWorld: same
// topology as Build, but no process boots the virgin kernel, and the
// offered rate must already be resolved (it is recorded in the snapshot
// envelope — the saturation probe must not rerun).
func BuildForRestore(v Version, o Options, rate float64) *Cluster {
	o = o.withDefaults()
	if !snapshotSupported(versionTraits(v), o) {
		snapio.Failf("harness: version %s not supported by snapshots (INDEP through FME, no redundant front-end)", v)
	}
	if rate <= 0 {
		snapio.Failf("harness: BuildForRestore needs a resolved rate, got %v", rate)
	}
	c := buildWorld(v, o, true)
	c.attachWorkload(rate)
	return c
}

// FaultSpecs returns the Table 1 fault load applicable to this version.
func (c *Cluster) FaultSpecs() []faults.Spec {
	return faults.Table1(len(c.Machines), 2, c.Traits.fe)
}

// Reintegrated reports whether the service is fully healthy and whole:
// every machine up, every server process alive, unwedged, and (for
// cooperative versions) holding a complete cooperation view.
func (c *Cluster) Reintegrated() bool {
	n := len(c.Machines)
	for i, m := range c.Machines {
		if !m.Up() {
			return false
		}
		p := m.Proc("press")
		// A transient disk-queue stall (cold cache after a restart) is
		// normal operation, not un-wholeness; persistent exclusions show
		// up in the view check below.
		if p == nil || !p.Alive() || p.Hung() {
			return false
		}
		if c.Traits.cooperative {
			srv := c.Server(i)
			if srv == nil || len(srv.View()) != n {
				return false
			}
		}
	}
	if c.Traits.fe {
		if m := c.activeFEMachine(); m == nil || !m.Up() {
			return false
		}
		if fe := c.Frontend(); fe == nil || len(fe.Healthy()) != n {
			return false
		}
	}
	return true
}

// takeoverControl performs the IP takeover for the standby front-end.
type takeoverControl struct{ c *Cluster }

func (t takeoverControl) Takeover() {
	t.c.Net.SetAlias(feVIP, feBackupID)
}

// OperatorReset performs the operator's recovery action at the end of a
// failed self-recovery (§3: "restart the singleton sub-cluster"): every
// splintered, wedged, or dead server process is restarted.
func (c *Cluster) OperatorReset() {
	c.Log.EmitID(c.Sim.Now(), metrics.SrcOperator, metrics.KOperatorReset, -1, "restarting unhealthy servers")
	n := len(c.Machines)
	// The reference view size is the largest healthy view.
	best := 0
	if c.Traits.cooperative {
		for i := range c.Machines {
			if srv := c.Server(i); srv != nil && c.Machines[i].Up() && len(srv.View()) > best {
				best = len(srv.View())
			}
		}
	}
	for _, m := range c.Machines {
		// A node parked offline (e.g. by FME) whose hardware has since
		// been repaired is the operator's to boot. Machines with faulty
		// disks stay with the repair crew.
		if !m.Up() && m.State() == simnet.NodeDown && m.Disks() != nil && !m.Disks().AnyFaulty() {
			m.Restart()
		}
	}
	for i, m := range c.Machines {
		if !m.Up() {
			continue // still the repair crew's problem
		}
		p := m.Proc("press")
		needs := p == nil || !p.Alive() || p.Hung()
		if !needs && c.Traits.cooperative {
			srv := c.Server(i)
			needs = srv == nil || (len(srv.View()) < best || len(srv.View()) < n)
		}
		if needs {
			m.KillProc("press")
			m.StartProc("press")
		}
	}
}
