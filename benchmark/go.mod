// The benchmark is a module of its own so that it builds from its own
// directory; the plasma/ prefix is what lets it import plasma/internal/...
module plasma/benchmark

go 1.22

require plasma v0.0.0

replace plasma => ../
