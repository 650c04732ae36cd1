package cnet

import (
	"time"

	"press/internal/clock"
	"press/internal/snapio"
)

// Snapshot support shared by the protocol components. A component saves
// its protocol state and the identities of its pending timers, tickers,
// connections and dials; on restore it rebuilds itself on a RestoreEnv,
// which hands each saved identity back with the callback the component
// re-supplies (callbacks themselves are never serialized).

// RestoreEnv is the process environment surface a component restore
// needs: the normal Env plus the restore registrations the simulator's
// machine.Env provides while a snapshot is being rehydrated.
type RestoreEnv interface {
	Env
	// RestoreTimer re-claims a pending timer by serial.
	RestoreTimer(serial uint64, fn func()) clock.Timer
	// RestoreTicker rebuilds an unarmed ticker; LoadTicker re-arms it.
	RestoreTicker(period time.Duration, fn func(), stopped bool) clock.Ticker
	// RestoreDialer re-attaches the one in-flight dial to (to, port).
	RestoreDialer(to NodeID, port string, h StreamHandlers, result func(Conn, error))
	// RestoreDialOwner re-attaches the tagged in-flight dial saved under
	// id (DialTagger.DialRef) to its owner.
	RestoreDialOwner(id uint64, owner DialOwner)
	// RestoreConn re-attaches handlers to a restored connection.
	RestoreConn(c Conn, h StreamHandlers)
	// RestoreConnList lists every connection the process carried.
	RestoreConnList() []Conn
}

// DialTagger is implemented by environments whose snapshots must tell
// several in-flight dials to one (node, port) apart. A component tags
// each dial with the record that owns its result callback.
type DialTagger interface {
	TagNextDial(owner any)
	// DialRef returns the snapshot id of owner's in-flight dial (save
	// side); false when its result already sits in the mailbox.
	DialRef(ctx *snapio.Ctx, owner any) (uint64, bool)
}

// DialOwner is a record that tagged a dial. On restore it re-supplies
// the stream handlers and the result callback the dial was issued with.
type DialOwner interface {
	RestoreDialEndpoint() (StreamHandlers, func(Conn, error))
}

// TimerSerial extracts the serial from a retained timer handle.
func TimerSerial(h any, what string) uint64 {
	ts, ok := h.(interface{ TimerSerial() uint64 })
	if !ok {
		snapio.Failf("%s handle %T carries no timer serial", what, h)
	}
	return ts.TimerSerial()
}

// SaveTimer writes a retained timer handle: none, or its serial.
func SaveTimer(e *snapio.Encoder, h clock.Timer, what string) {
	e.Bool(h != nil)
	if h != nil {
		e.U64(TimerSerial(h, what))
	}
}

// LoadTimer re-claims a timer SaveTimer wrote (nil when none was saved).
func LoadTimer(d *snapio.Decoder, env RestoreEnv, fn func()) clock.Timer {
	if !d.Bool() {
		return nil
	}
	return env.RestoreTimer(d.U64(), fn)
}

// SaveSerial writes a fire-and-forget timer's serial (clock.Schedule)
// in SaveTimer's layout; 0 means none pending.
func SaveSerial(e *snapio.Encoder, serial uint64) {
	e.Bool(serial != 0)
	if serial != 0 {
		e.U64(serial)
	}
}

// LoadSerial re-claims a timer SaveSerial wrote and returns its serial.
func LoadSerial(d *snapio.Decoder, env RestoreEnv, fn func()) uint64 {
	if !d.Bool() {
		return 0
	}
	serial := d.U64()
	env.RestoreTimer(serial, fn)
	return serial
}

// SaveTicker writes a retained ticker's loop state: whether Stop ended
// it, and the serial of its pending (or fire-in-mailbox) timer.
func SaveTicker(e *snapio.Encoder, t clock.Ticker, what string) {
	st, ok := t.(interface {
		Stopped() bool
		PendingTimer() clock.Timer
	})
	if !ok {
		snapio.Failf("%s ticker %T is not restorable", what, t)
	}
	e.Bool(st.Stopped())
	SaveTimer(e, st.PendingTimer(), what)
}

// LoadTicker rebuilds a ticker SaveTicker wrote, re-arming its pending
// fire at the exact kernel slot.
func LoadTicker(d *snapio.Decoder, env RestoreEnv, period time.Duration, fn func(), what string) clock.Ticker {
	t := env.RestoreTicker(period, fn, d.Bool())
	rt, ok := t.(interface {
		FireFunc() func()
		AdoptTimer(clock.Timer)
	})
	if !ok {
		snapio.Failf("%s: restored ticker %T lacks a timer-adoption surface", what, t)
	}
	if h := LoadTimer(d, env, rt.FireFunc()); h != nil {
		rt.AdoptTimer(h)
	}
	return t
}

// SaveConn writes a connection reference (nil allowed).
func SaveConn(ctx *snapio.Ctx, c Conn) {
	ctx.Enc.Bool(c != nil)
	if c != nil {
		ctx.Enc.U64(ctx.Conns.Ref(c))
	}
}

// LoadConn resolves a reference SaveConn wrote.
func LoadConn(ctx *snapio.Ctx) Conn {
	if !ctx.Dec.Bool() {
		return nil
	}
	ref := ctx.Dec.U64()
	c, ok := ctx.Conns.Obj(ref).(Conn)
	if !ok {
		snapio.Failf("conn ref %d is not a conn", ref)
	}
	return c
}

// SaveDialRef writes where owner's unreported dial is: in flight (the
// dial record's snapshot id) or already reported into the mailbox,
// where the owner tag travels with the entry.
func SaveDialRef(ctx *snapio.Ctx, t DialTagger, owner any) {
	var id uint64
	var inFlight bool
	if t != nil {
		id, inFlight = t.DialRef(ctx, owner)
	}
	ctx.Enc.Bool(inFlight)
	if inFlight {
		ctx.Enc.U64(id)
	}
}

// LoadDialRef re-attaches a dial SaveDialRef found in flight to owner.
func LoadDialRef(ctx *snapio.Ctx, env RestoreEnv, owner DialOwner) {
	if ctx.Dec.Bool() {
		env.RestoreDialOwner(ctx.Dec.U64(), owner)
	}
}

// RestoreConnHandlers re-attaches handlers to every connection the
// restoring process carried: known's entry where it has one, inert
// handlers otherwise — for a component whose other connections belong
// to finished work, so every call still queued for them would find
// nothing left to do.
func RestoreConnHandlers(env RestoreEnv, known map[Conn]StreamHandlers) {
	inert := StreamHandlers{
		OnMessage: func(Conn, Message) {},
		OnClose:   func(Conn, error) {},
	}
	for _, c := range env.RestoreConnList() {
		h, ok := known[c]
		if !ok {
			h = inert
		}
		env.RestoreConn(c, h)
	}
}
