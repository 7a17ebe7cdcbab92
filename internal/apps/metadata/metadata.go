// Package metadata is the Metadata Server application of §3.3 and §5.3
// (Fig. 5): Folder actors and File actors serve remote clients. Opening a
// folder implies accessing the files contained in it, which is why the
// paper's rule both reserves an idle server for a hot folder and colocates
// its files with it — and why the application-agnostic default rule (move
// only the hot folder) gains nothing.
package metadata

import (
	"plasma/internal/actor"
	"plasma/internal/cluster"
	"plasma/internal/epl"
	"plasma/internal/sim"
)

// PolicySrc is the §3.3 Metadata Server rule, verbatim.
const PolicySrc = `
server.cpu.perc > 80 and
client.call(Folder(fo).open).perc > 40 and
File(fi) in ref(fo.files) =>
    reserve(fo, cpu); colocate(fo, fi);
`

// Schema declares the application's actor classes for policy checking.
func Schema() *epl.Schema {
	return epl.NewSchema(
		epl.Class("Folder", []string{"open"}, []string{"files"}),
		epl.Class("File", []string{"read"}, nil),
	)
}

// Per-operation CPU costs. File reads dominate so that moving a folder
// without its files relieves almost nothing.
const (
	openCost = 5 * sim.Millisecond
	readCost = 20 * sim.Millisecond
	repSize  = 1024
)

// App is a deployed metadata server.
type App struct {
	RT      *actor.Runtime
	Folders []actor.Ref
	Files   [][]actor.Ref
}

// folderState forwards each open to the next file (round robin) in the
// folder; the file replies to the client.
type folderState struct {
	files []actor.Ref
	next  int
}

func (f *folderState) Receive(ctx *actor.Context, msg actor.Message) {
	switch msg.Method {
	case "init":
		ctx.SetProp("files", f.files)
		ctx.SetMemSize(64 << 10)
	case "open":
		ctx.Use(openCost)
		if len(f.files) == 0 {
			ctx.Reply(nil, repSize)
			return
		}
		target := f.files[f.next%len(f.files)]
		f.next++
		ctx.Forward(target, "read", msg.Arg, msg.Size)
	}
}

type fileState struct{}

func (fileState) Receive(ctx *actor.Context, msg actor.Message) {
	switch msg.Method {
	case "init":
		ctx.SetMemSize(256 << 10)
	case "read":
		ctx.Use(readCost)
		ctx.Reply(nil, repSize)
	}
}

// Build deploys folders×filesPer actors on srv and publishes the folder →
// files reference properties.
func Build(k *sim.Kernel, rt *actor.Runtime, srv cluster.MachineID, folders, filesPer int) *App {
	app := &App{RT: rt}
	boot := actor.NewClient(rt, srv)
	for i := 0; i < folders; i++ {
		var files []actor.Ref
		for j := 0; j < filesPer; j++ {
			fr := rt.SpawnOn("File", fileState{}, srv)
			boot.Send(fr, "init", nil, 1)
			files = append(files, fr)
		}
		fo := rt.SpawnOn("Folder", &folderState{files: files}, srv)
		boot.Send(fo, "init", nil, 1)
		app.Folders = append(app.Folders, fo)
		app.Files = append(app.Files, files)
	}
	return app
}

// HotWeights returns the §5.3 request skew: folder 0 receives `hotFrac` of
// all requests and the rest share the remainder evenly.
func HotWeights(folders int, hotFrac float64) []float64 {
	w := make([]float64, folders)
	w[0] = hotFrac
	for i := 1; i < folders; i++ {
		w[i] = (1 - hotFrac) / float64(folders-1)
	}
	return w
}
