package actor

import (
	"testing"

	"plasma/internal/sim"
)

// A request is answered once. A handler that replies twice, or forwards the
// request and replies too, runs the requester's callback once and the runtime
// counts the extra reply: on arrival when both replies left while the
// request was open, at commit when the request was answered by then.
func TestRequestCompletesOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		front func(leaf Ref) BehaviorFunc
		// atCommit: the extra reply is dropped when its turn ends, so
		// nothing happens after the leaf's turn.
		atCommit bool
	}{
		{"ReplyTwice", func(Ref) BehaviorFunc {
			return func(ctx *Context, msg Message) {
				ctx.Use(sim.Millisecond)
				ctx.Reply("first", 8)
				ctx.Reply("second", 8)
			}
		}, false},
		{"ForwardThenReply", func(leaf Ref) BehaviorFunc {
			return func(ctx *Context, msg Message) {
				ctx.Use(sim.Millisecond)
				ctx.Forward(leaf, msg.Method, nil, 8)
				ctx.Reply("first", 8)
			}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, _, rt := testEnv(t, 3)
			var leafEnd sim.Time
			leaf := rt.SpawnOn("Leaf", BehaviorFunc(func(ctx *Context, msg Message) {
				ctx.Use(sim.Millisecond)
				leafEnd = ctx.Now() + sim.Time(sim.Millisecond+baseMsgCost)
				ctx.Reply("leaf", 8)
			}), 1)
			front := rt.SpawnOn("Front", tc.front(leaf), 0)
			var replies []interface{}
			NewClient(rt, 2).Request(front, "get", nil, 8, func(_ sim.Duration, r interface{}) { replies = append(replies, r) })
			k.RunUntilIdle()
			if len(replies) != 1 || replies[0] != "first" {
				t.Fatalf("callback saw %v, want [first]", replies)
			}
			if got := rt.DuplicateReplies(); got != 1 {
				t.Fatalf("DuplicateReplies = %d, want 1", got)
			}
			if tc.atCommit && k.Now() != leafEnd {
				t.Fatalf("the run ended at %v, after the leaf's turn at %v: its stale reply was sent", k.Now(), leafEnd)
			}
		})
	}
}

// A late duplicate for request A is dropped even when request B has taken
// A's slot of the reply table since: the slot's generation moved on, so the
// duplicate never runs B's callback.
func TestLateDuplicateSkipsReusedSlot(t *testing.T) {
	k, _, rt := testEnv(t, 3)
	twice := rt.SpawnOn("Twice", BehaviorFunc(func(ctx *Context, msg Message) {
		ctx.Use(sim.Millisecond)
		ctx.Reply("A1", 8)
		ctx.Reply("A2", 8)
	}), 0)
	slow := rt.SpawnOn("Slow", BehaviorFunc(func(ctx *Context, msg Message) {
		ctx.Use(50 * sim.Millisecond)
		ctx.Reply("B", 8)
	}), 1)
	cl := NewClient(rt, 2)
	var gotA, gotB []interface{}
	cl.Request(twice, "a", nil, 8, func(_ sim.Duration, r interface{}) {
		gotA = append(gotA, r)
		// A's first reply freed its slot: B takes it while A2 is in flight.
		cl.Request(slow, "b", nil, 8, func(_ sim.Duration, r interface{}) { gotB = append(gotB, r) })
	})
	k.RunUntilIdle()
	if len(gotA) != 1 || gotA[0] != "A1" {
		t.Fatalf("A's callback saw %v, want [A1]", gotA)
	}
	if len(gotB) != 1 || gotB[0] != "B" {
		t.Fatalf("B's callback saw %v, want [B]", gotB)
	}
	if len(rt.replies) != 1 {
		t.Fatalf("reply table holds %d slots, want 1: B did not reuse A's", len(rt.replies))
	}
	if got := rt.DuplicateReplies(); got != 1 {
		t.Fatalf("DuplicateReplies = %d, want 1", got)
	}
}

// A request shed at a full bounded mailbox is never answered: its callback
// never runs and its slot stays open, while the requests served free theirs.
func TestShedRequestKeepsSlotOpen(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	rt.MailboxCap = 1
	ref := rt.SpawnOn("Echo", &echo{}, 0)
	cl := NewClient(rt, 1)
	calls := make([]int, 3)
	for i := range calls {
		// The first starts a turn, the second queues, the third is shed.
		cl.Request(ref, "m", nil, 8, func(sim.Duration, interface{}) { calls[i]++ })
	}
	k.RunUntilIdle()
	if calls[0] != 1 || calls[1] != 1 || calls[2] != 0 || rt.ShedRequests() != 1 {
		t.Fatalf("callbacks ran %v times with %d shed, want [1 1 0] with 1 shed", calls, rt.ShedRequests())
	}
	for slot, rp := range rt.replies {
		if open := slot == 2; (rp.gen == 0) != open || (rp.done != nil) != open {
			t.Errorf("slot %d: generation %d, callback set %v; only the shed request's slot 2 is open",
				slot, rp.gen, rp.done != nil)
		}
	}
	if got := rt.DuplicateReplies(); got != 0 {
		t.Fatalf("DuplicateReplies = %d, want 0", got)
	}
}
