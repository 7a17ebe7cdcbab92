// Package chatroom is the online chat room microbenchmark of §5.2 (Table 3):
// users, each represented by an actor, exchange messages with others in the
// same room. It is deployed on a single instance and used to measure the
// profiling runtime's overhead (PLASMA vs vanilla execution time). It ships
// no policy: the overhead experiment only needs the profiler running, and
// the actors stay where they were spawned.
package chatroom

import (
	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/sim"
)

// Costs for one message hop. The room fan-out dominates.
const (
	postCost    = 300 * sim.Microsecond
	deliverCost = 120 * sim.Microsecond
	msgSize     = 256
)

// App is one chat room deployment.
type App struct {
	RT    *actor.Runtime
	Room  actor.Ref
	Users []actor.Ref

	// Delivered counts user-received messages.
	Delivered int64
}

// roomState broadcasts each post to every user in the room.
type roomState struct {
	app *App
}

func (r *roomState) Receive(ctx *actor.Context, msg actor.Message) {
	switch msg.Method {
	case "post":
		ctx.Use(postCost)
		for _, u := range r.app.Users {
			if u != msg.Sender {
				ctx.Send(u, "deliver", msg.Arg, msgSize)
			}
		}
	}
}

// userState processes deliveries and (optionally) keeps posting.
type userState struct {
	app *App
}

func (u *userState) Receive(ctx *actor.Context, msg actor.Message) {
	switch msg.Method {
	case "deliver":
		ctx.Use(deliverCost)
		u.app.Delivered++
	case "post":
		ctx.Use(deliverCost)
		ctx.Send(u.app.Room, "post", msg.Arg, msgSize)
	}
}

// Build deploys a room with n users on the given server.
func Build(rt *actor.Runtime, srv cluster.MachineID, n int) *App {
	app := &App{RT: rt}
	app.Room = rt.SpawnOn("Room", &roomState{app: app}, srv)
	for i := 0; i < n; i++ {
		app.Users = append(app.Users, rt.SpawnOn("User", &userState{app: app}, srv))
	}
	return app
}

// DrivePosts has every user post `posts` messages, paced by interval, via
// a client on the given site. Returns after scheduling; run the kernel to
// completion and read the clock for total execution time.
func (a *App) DrivePosts(k *sim.Kernel, site cluster.MachineID, posts int, interval sim.Duration) {
	cl := actor.NewClient(a.RT, site)
	for i := 0; i < posts; i++ {
		delay := sim.Duration(i) * interval
		k.After(delay, func() {
			for _, u := range a.Users {
				cl.Send(u, "post", nil, msgSize)
			}
		})
	}
}
