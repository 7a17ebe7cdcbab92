// Package mediaservice is the Media Service application of §3.3 and §5.6
// (Fig. 10), modeled on the DeathStarBench media microservices: eight
// interdependent actor types serving two flows,
//
//	watch:  client → FrontEnd → VideoStream (CPU-heavy) → reply,
//	        with VideoStream tracking history on the user's UserInfo;
//	review: client → FrontEnd → ReviewEditor → ReviewChecker (CPU-heavy)
//	        → reply, with the editor updating the user's UserReview and
//	        the checker publishing into a genre MovieReview (memory-heavy).
//
// Clients join and leave over time; UserInfo/UserReview actors are
// per-client, FrontEnd/VideoStream/ReviewEditor/ReviewChecker actors each
// serve two clients, MovieReview and Catalog actors are global.
package mediaservice

import (
	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// PolicySrc is the §3.3 Media Service policy (6 rules), verbatim.
const PolicySrc = `
server.net.perc > 80 or server.net.perc < 60 =>
    balance({FrontEnd}, net);
server.cpu.perc > 50 => reserve(VideoStream(v), cpu);
VideoStream(v).call(UserInfo(u).track).count > 0 =>
    pin(v); colocate(v, u);
ReviewEditor(r).call(UserReview(u).update).count > 0 =>
    pin(r); colocate(r, u);
true => pin(MovieReview(m));
server.cpu.perc > 90 or server.cpu.perc < 70 =>
    balance({ReviewChecker}, cpu);
`

// Schema declares the application's actor classes.
func Schema() *epl.Schema {
	return epl.NewSchema(
		epl.Class("FrontEnd", []string{"watch", "review"}, nil),
		epl.Class("VideoStream", []string{"stream"}, nil),
		epl.Class("UserInfo", []string{"track"}, nil),
		epl.Class("ReviewEditor", []string{"edit"}, nil),
		epl.Class("UserReview", []string{"update"}, nil),
		epl.Class("ReviewChecker", []string{"check"}, nil),
		epl.Class("MovieReview", []string{"publish", "read"}, nil),
		epl.Class("Catalog", []string{"lookup"}, nil),
	)
}

// Flow costs and sizes.
const (
	frontCost   = 500 * sim.Microsecond
	streamCost  = 12 * sim.Millisecond
	trackCost   = 200 * sim.Microsecond
	editCost    = 2 * sim.Millisecond
	updateCost  = 300 * sim.Microsecond
	checkCost   = 10 * sim.Millisecond
	publishCost = 500 * sim.Microsecond

	streamRepSize = 64 << 10 // streamed chunk back to the client
	reviewRepSize = 256
)

// App is a deployed media service with a dynamic client population.
type App struct {
	K  *sim.Kernel
	RT *actor.Runtime

	MovieReviews []actor.Ref
	Catalogs     []actor.Ref

	clients map[int]*clientActors // keyed by pair index
	users   map[int]*userActors   // keyed by client id
	nextIdx int
}

// clientActors are the pair-scoped actors serving two clients.
type clientActors struct {
	frontEnd actor.Ref
	video    actor.Ref
	editor   actor.Ref
	checker  actor.Ref
	userInfo actor.Ref // the pair's most recent user's info actor
	userRev  actor.Ref
	refs     int // live clients on this pair
}

// userActors are the per-client actors.
type userActors struct {
	userInfo actor.Ref
	userRev  actor.Ref
}

type frontEndState struct {
	app *App
	idx int // client pair index
}

func (f *frontEndState) Receive(ctx *actor.Context, msg actor.Message) {
	ca := f.app.clients[f.idx]
	if ca == nil {
		return
	}
	switch msg.Method {
	case "watch":
		ctx.Use(frontCost)
		ctx.Forward(ca.video, "stream", msg.Arg, msg.Size)
	case "review":
		ctx.Use(frontCost)
		ctx.Forward(ca.editor, "edit", msg.Arg, msg.Size)
	}
}

type videoState struct {
	app *App
	idx int
}

func (v *videoState) Receive(ctx *actor.Context, msg actor.Message) {
	if msg.Method != "stream" {
		return
	}
	ctx.Use(streamCost)
	ctx.SetMemSize(1 << 20)
	if ca := v.app.clients[v.idx]; ca != nil && !ca.userInfo.Zero() {
		ctx.Send(ca.userInfo, "track", nil, 128)
	}
	ctx.Reply(nil, streamRepSize)
}

type userInfoState struct{}

func (userInfoState) Receive(ctx *actor.Context, msg actor.Message) {
	if msg.Method == "track" {
		ctx.Use(trackCost)
		ctx.SetMemSize(512 << 10)
	}
}

type editorState struct {
	app *App
	idx int
}

func (e *editorState) Receive(ctx *actor.Context, msg actor.Message) {
	if msg.Method != "edit" {
		return
	}
	ctx.Use(editCost)
	ca := e.app.clients[e.idx]
	if ca == nil {
		return
	}
	if !ca.userRev.Zero() {
		ctx.Send(ca.userRev, "update", nil, 512)
	}
	ctx.Forward(ca.checker, "check", msg.Arg, msg.Size)
}

type userReviewState struct{}

func (userReviewState) Receive(ctx *actor.Context, msg actor.Message) {
	if msg.Method == "update" {
		ctx.Use(updateCost)
		ctx.SetMemSize(256 << 10)
	}
}

type checkerState struct {
	app *App
	mr  int // genre index
}

func (c *checkerState) Receive(ctx *actor.Context, msg actor.Message) {
	if msg.Method != "check" {
		return
	}
	ctx.Use(checkCost)
	ctx.Send(c.app.MovieReviews[c.mr%len(c.app.MovieReviews)], "publish", nil, 1<<10)
	c.mr++
	ctx.Reply(nil, reviewRepSize)
}

type movieReviewState struct{}

func (movieReviewState) Receive(ctx *actor.Context, msg actor.Message) {
	switch msg.Method {
	case "publish":
		ctx.Use(publishCost)
		ctx.SetMemSize(64 << 20) // memory-intensive genre store
	case "read":
		ctx.Use(publishCost)
		ctx.Reply(nil, 4<<10)
	}
}

type catalogState struct{}

func (catalogState) Receive(ctx *actor.Context, msg actor.Message) {
	if msg.Method == "lookup" {
		ctx.Use(100 * sim.Microsecond)
		ctx.Reply(nil, 1<<10)
	}
}

// Build deploys the global actors (genre MovieReviews and Catalogs) across
// the initial servers. Per-client actors are created by AddClient.
func Build(k *sim.Kernel, rt *actor.Runtime, servers []cluster.MachineID, genres int) *App {
	app := &App{K: k, RT: rt, clients: map[int]*clientActors{}, users: map[int]*userActors{}}
	boot := actor.NewClient(rt, servers[0])
	for i := 0; i < genres; i++ {
		mr := rt.SpawnOn("MovieReview", movieReviewState{}, servers[i%len(servers)])
		boot.Send(mr, "publish", nil, 1)
		app.MovieReviews = append(app.MovieReviews, mr)
		app.Catalogs = append(app.Catalogs, rt.SpawnOn("Catalog", catalogState{}, servers[i%len(servers)]))
	}
	return app
}

// AddClient provisions actors for a joining client and returns its id and
// front-end ref. Every second client shares the pair-scoped actors
// (FrontEnd, VideoStream, ReviewEditor, ReviewChecker) with its sibling —
// the paper's "all other actors serve two clients each" — while UserInfo
// and UserReview are per-client.
func (app *App) AddClient() (id int, frontEnd actor.Ref) {
	id = app.nextIdx
	app.nextIdx++
	pair := id / 2

	ca := app.clients[pair]
	if ca == nil {
		ca = &clientActors{}
		app.clients[pair] = ca
		ca.frontEnd = app.RT.Spawn("FrontEnd", &frontEndState{app: app, idx: pair}, actor.Ref{})
		ca.video = app.RT.Spawn("VideoStream", &videoState{app: app, idx: pair}, ca.frontEnd)
		ca.editor = app.RT.Spawn("ReviewEditor", &editorState{app: app, idx: pair}, ca.frontEnd)
		ca.checker = app.RT.Spawn("ReviewChecker", &checkerState{app: app}, ca.editor)
	}
	ca.refs++
	ua := &userActors{
		userInfo: app.RT.Spawn("UserInfo", userInfoState{}, ca.video),
		userRev:  app.RT.Spawn("UserReview", userReviewState{}, ca.editor),
	}
	app.users[id] = ua
	// The pair's flows track the most recently joined user.
	ca.userInfo = ua.userInfo
	ca.userRev = ua.userRev
	return id, ca.frontEnd
}

// RemoveClient releases a client's actors; pair-scoped actors go away when
// both siblings have left.
func (app *App) RemoveClient(id int) {
	if ua := app.users[id]; ua != nil {
		app.RT.Stop(ua.userInfo)
		app.RT.Stop(ua.userRev)
		delete(app.users, id)
	}
	pair := id / 2
	ca := app.clients[pair]
	if ca == nil {
		return
	}
	ca.refs--
	if ca.refs > 0 {
		// Sibling still active: retarget the flows at a live user if any.
		for uid, ua := range app.users {
			if uid/2 == pair {
				ca.userInfo = ua.userInfo
				ca.userRev = ua.userRev
				break
			}
		}
		return
	}
	app.RT.Stop(ca.frontEnd)
	app.RT.Stop(ca.video)
	app.RT.Stop(ca.editor)
	app.RT.Stop(ca.checker)
	delete(app.clients, pair)
}

// ActiveActors reports the number of live application actors.
func (app *App) ActiveActors() int {
	return len(app.MovieReviews) + len(app.Catalogs) +
		4*len(app.clients) + 2*len(app.users)
}
