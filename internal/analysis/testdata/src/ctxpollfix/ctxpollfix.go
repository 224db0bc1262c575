// Package ctxpollfix is the ctxpoll golden fixture: unbounded loops in
// context-carrying functions, with and without the bounded poll.
package ctxpollfix

import "context"

type source struct{ left int }

func (s *source) next() bool { s.left--; return s.left >= 0 }

// unpolledReader never consults ctx: a cancelled caller waits for the
// whole input anyway.
func unpolledReader(ctx context.Context, s *source) int {
	rows := 0
	for s.next() { // want `unpolled-loop`
		rows++
	}
	return rows
}

// polledReader polls ctx once per bounded batch of rows.
func polledReader(ctx context.Context, s *source) (int, error) {
	rows := 0
	for s.next() {
		if rows&63 == 0 {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
		}
		rows++
	}
	return rows, nil
}

// infinite loops must poll too.
func infinite(ctx context.Context, ch chan int) {
	for { // want `unpolled-loop`
		v := <-ch
		if v == 0 {
			return
		}
	}
}

// selectDone polls through select on ctx.Done.
func selectDone(ctx context.Context, ch chan int) {
	for {
		select {
		case <-ctx.Done():
			return
		case v := <-ch:
			_ = v
		}
	}
}

// delegated hands ctx to the callee, which owns cancellation.
func delegated(ctx context.Context, s *source) {
	for s.next() {
		step(ctx)
	}
}

func step(ctx context.Context) {}

// boundedForms are exempt: counted loops, range over data, range over a
// close-terminated channel.
func boundedForms(ctx context.Context, rows [][]string, ch chan int) int {
	n := 0
	for i := 0; i < len(rows); i++ {
		n += len(rows[i])
	}
	for _, r := range rows {
		n += len(r)
	}
	for v := range ch {
		n += v
	}
	return n
}

// goroutineBody: a captured ctx obliges literals the same way.
func goroutineBody(ctx context.Context, s *source) {
	go func() {
		_ = ctx // captured: the literal is context-carrying
		for s.next() { // want `unpolled-loop`
			_ = s
		}
	}()
}
