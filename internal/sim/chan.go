package sim

// Chan is a typed rendezvous/buffered channel in virtual time. With
// capacity 0, Send blocks until a receiver arrives (and vice versa); with a
// positive capacity, Send blocks only when the buffer is full. Message
// transfer itself takes zero virtual time — model transmission cost
// separately (see cluster.Net).
type Chan[T any] struct {
	k      *Kernel
	name   string
	cap    int
	buf    []T
	sendq  []chanSender[T]
	recvq  []*chanReceiver[T]
	closed bool
}

type chanSender[T any] struct {
	p *Proc
	v T
}

type chanReceiver[T any] struct {
	p  *Proc
	v  T
	ok bool
}

// NewChan creates a channel with the given buffer capacity (0 = rendezvous).
func NewChan[T any](k *Kernel, name string, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan[T]{k: k, name: name, cap: capacity}
}

// Send delivers v, blocking in virtual time if no receiver/buffer space is
// available. Sending on a closed channel panics, as with native channels.
func (c *Chan[T]) Send(p *Proc, v T) {
	p.FlushCharge()
	if c.closed {
		panic("sim: send on closed channel " + c.name)
	}
	if len(c.recvq) > 0 {
		r := c.recvq[0]
		c.recvq = c.recvq[1:]
		r.v, r.ok = v, true
		c.k.wake(r.p)
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	c.sendq = append(c.sendq, chanSender[T]{p: p, v: v})
	p.block()
	if c.closed {
		panic("sim: channel " + c.name + " closed while sending")
	}
}

// TrySend delivers v without blocking; it reports whether the value was
// accepted.
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic("sim: send on closed channel " + c.name)
	}
	if len(c.recvq) > 0 {
		r := c.recvq[0]
		c.recvq = c.recvq[1:]
		r.v, r.ok = v, true
		c.k.wake(r.p)
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Recv blocks until a value is available. ok is false if the channel was
// closed and drained.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	p.FlushCharge()
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		// Buffer space freed: admit a queued sender.
		if len(c.sendq) > 0 {
			s := c.sendq[0]
			c.sendq = c.sendq[1:]
			c.buf = append(c.buf, s.v)
			c.k.wake(s.p)
		}
		return v, true
	}
	if len(c.sendq) > 0 {
		s := c.sendq[0]
		c.sendq = c.sendq[1:]
		c.k.wake(s.p)
		return s.v, true
	}
	if c.closed {
		return v, false
	}
	r := &chanReceiver[T]{p: p}
	c.recvq = append(c.recvq, r)
	p.block()
	return r.v, r.ok
}

// TryRecv receives without blocking.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		if len(c.sendq) > 0 {
			s := c.sendq[0]
			c.sendq = c.sendq[1:]
			c.buf = append(c.buf, s.v)
			c.k.wake(s.p)
		}
		return v, true
	}
	if len(c.sendq) > 0 {
		s := c.sendq[0]
		c.sendq = c.sendq[1:]
		c.k.wake(s.p)
		return s.v, true
	}
	return v, false
}

// Close marks the channel closed; parked receivers wake with ok=false.
func (c *Chan[T]) Close() {
	if c.closed {
		panic("sim: close of closed channel " + c.name)
	}
	c.closed = true
	for _, r := range c.recvq {
		r.ok = false
		c.k.wake(r.p)
	}
	c.recvq = nil
}
