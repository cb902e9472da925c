package fixtures

import "errors"

// Local stand-ins with the shape the analyzer matches structurally: a
// Span with a StartChild method returning a *Span that has End.

type Span struct {
	name  string
	ended bool
}

func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{name: name}
}

func (s *Span) End() {
	if s != nil {
		s.ended = true
	}
}

func (s *Span) SetError(err error) {}

func (s *Span) Annotate(k, v string) {}

func work() error { return errors.New("nope") }

// True positives.

func dropped(sp *Span) {
	sp.StartChild("x") // want "span is dropped"
}

func discarded(sp *Span) {
	_ = sp.StartChild("x") // want "span is discarded with _"
}

func sameStatement(sp *Span) {
	sp.StartChild("x").End() // want "started and ended in the same statement"
}

func neverEnded(sp *Span) {
	c := sp.StartChild("x") // want "span \"c\" is never ended"
	c.Annotate("k", "v")
}

func earlyReturnSkipsEnd(sp *Span) error {
	c := sp.StartChild("x")
	if err := work(); err != nil {
		return err // want "return without ending span \"c\""
	}
	c.End()
	return nil
}

func switchReturnSkipsEnd(sp *Span) error {
	c := sp.StartChild("x")
	switch err := work(); err {
	case nil:
	default:
		return err // want "return without ending span \"c\""
	}
	c.End()
	return nil
}

// Clean patterns.

func deferred(sp *Span) error {
	c := sp.StartChild("x")
	defer c.End()
	return work()
}

func deferredClosure(sp *Span) (err error) {
	c := sp.StartChild("x")
	defer func() {
		if err != nil {
			c.SetError(err)
		}
		c.End()
	}()
	return work()
}

func straightLine(sp *Span) error {
	c := sp.StartChild("x")
	err := work()
	c.End()
	return err
}

func endedOnEveryPath(sp *Span) error {
	c := sp.StartChild("x")
	if err := work(); err != nil {
		c.SetError(err)
		c.End()
		return err
	}
	c.End()
	return nil
}

func escapesAsArgument(sp *Span, sink func(*Span)) {
	c := sp.StartChild("x")
	sink(c)
}

func escapesIntoField(sp *Span, out *struct{ S *Span }) {
	out.S = sp.StartChild("x")
}

func escapesByReturn(sp *Span) *Span {
	c := sp.StartChild("x")
	return c
}

func innerFuncReturnsAreNotExits(sp *Span, run func(func() error)) {
	c := sp.StartChild("x")
	run(func() error {
		return work() // a different function's return, not this span's exit
	})
	c.End()
}

func loopRecreate(sp *Span) {
	c := sp.StartChild("gap")
	for i := 0; i < 3; i++ {
		c.End()
		c = sp.StartChild("gap") //lint:spanend-ok re-created per iteration; ended at the top of the next pass or after the loop
	}
	c.End()
}

// Stage timers: a stand-in Observer whose Stage hands back a
// StageTimer with End, the shape of telemetry.Observer.Stage.

type Observer struct{ on bool }

type StageTimer struct{ on bool }

func (o *Observer) Stage(s int) StageTimer { return StageTimer{on: o.on} }

func (t StageTimer) End() {}

func droppedTimer(o *Observer) {
	o.Stage(0) // want "stage timer is dropped"
}

func discardedTimer(o *Observer) {
	_ = o.Stage(0) // want "stage timer is discarded with _"
}

func timerEarlyReturn(o *Observer) error {
	qt := o.Stage(1)
	if err := work(); err != nil {
		return err // want "return without ending stage timer \"qt\""
	}
	qt.End()
	return nil
}

func timerDeferred(o *Observer) error {
	defer o.Stage(0).End()
	return work()
}

func timerEndedOnEveryPath(o *Observer) error {
	qt := o.Stage(1)
	if err := work(); err != nil {
		qt.End()
		return err
	}
	qt.End()
	return nil
}

func timerLoopRecreate(o *Observer, results chan int) {
	wait := o.Stage(4)
	for range results {
		wait.End()
		wait = o.Stage(4) //lint:spanend-ok ended on the next receive or after the loop
	}
	wait.End()
}

// Assigning a span or timer to _ hands it to no one: it neither
// escapes nor ends.

func blankedNotEnded(sp *Span) {
	c := sp.StartChild("x") // want "span \"c\" is never ended"
	_ = c
}

func blankedTimer(o *Observer) error {
	fit := o.Stage(1) // want "stage timer \"fit\" is never ended"
	err := work()
	_ = fit
	return err
}
