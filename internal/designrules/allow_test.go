package designrules

// This file is the one place the design rules' declarations and
// allowlists live. An allowlist may only shrink: an entry whose
// violation is gone fails the test until it is deleted.

// lowerLayers are the packages every other one builds on: the wire
// codecs, telemetry, the call substrate and the transports.
var lowerLayers = []string{
	"internal/protocol",
	"internal/obs",
	"internal/rpc",
	"internal/rpc/faultinject",
	"internal/transport",
}

// upperLayers are the stores, the camera node, the deployment wiring,
// the health plane, the topology server and the experiments. No lower
// layer imports one of them (or a package below one of them).
var upperLayers = []string{
	"internal/trajstore",
	"internal/framestore",
	"internal/camnode",
	"internal/core",
	"internal/fleet",
	"internal/topology",
	"internal/experiments",
}

// contextTypeAllow lists "<file>: <type>" entries exempt from the rule
// that no type re-implements context.Context.
var contextTypeAllow = map[string]bool{}

// layerImportAllow lists "<file>: imports <path>" entries exempt from
// the layering rule.
var layerImportAllow = map[string]bool{}

// jsonImportAllow lists the non-test files importing encoding/json. No
// file on the frame, log or envelope paths may join it.
var jsonImportAllow = map[string]bool{
	"internal/fleet/http.go: imports encoding/json":         true,
	"internal/framestore/segment.go: imports encoding/json": true,
	"internal/obs/http.go: imports encoding/json":           true,
	"internal/obs/log.go: imports encoding/json":            true,
	"internal/obs/registry.go: imports encoding/json":       true,
	"internal/obs/trace.go: imports encoding/json":          true,
	"internal/protocol/codec.go: imports encoding/json":     true,
	"internal/protocol/protocol.go: imports encoding/json":  true,
	"internal/roadnet/json.go: imports encoding/json":       true,
}

// listImportAllow lists the non-test files importing container/list:
// the one LRU.
var listImportAllow = map[string]bool{
	"internal/trajstore/cache.go: imports container/list": true,
}

// varintReaderPackages may call encoding/binary's varint readers: the
// codecs' one cursor lives there.
var varintReaderPackages = []string{"internal/protocol"}

// varintReaderAllow lists "<file>: uses binary.<reader>" entries exempt
// from the rule that varints are read through protocol.Cursor.
var varintReaderAllow = map[string]bool{}

// truncatePackages may shrink a file: the record-log reader, which cuts a
// torn tail.
var truncatePackages = []string{"internal/recordlog"}

// truncateAllow lists "<file>: uses os.Truncate" and "<file>: uses
// (*os.File).Truncate" entries exempt from the rule that only recordlog
// truncates.
var truncateAllow = map[string]bool{}

// goschedFiles may call runtime.Gosched: the batch writer, which yields to
// the flusher an edge just woke.
var goschedFiles = []string{"internal/trajstore/batchwriter.go"}

// goschedAllow lists "<file>: uses runtime.Gosched" entries exempt from
// the one-yield rule.
var goschedAllow = map[string]bool{}

// jsonFrameAllow lists the files that still call protocol.WriteFrame or
// ReadFrame ("<file>: uses protocol.<name>"): the fleet heartbeats, the
// last request/response wire that speaks JSON.
var jsonFrameAllow = map[string]bool{
	"internal/fleet/wire.go: uses protocol.ReadFrame":  true,
	"internal/fleet/wire.go: uses protocol.WriteFrame": true,
}

// rootContextPackages may create root contexts besides main packages: the
// daemon runtime that every binary runs on.
var rootContextPackages = []string{"internal/daemon"}

// rootContextAllow lists the library files that still create a root
// context ("<file>: uses context.Background" or "context.TODO").
var rootContextAllow = map[string]bool{
	"internal/camnode/live.go: uses context.Background":          true,
	"internal/core/system.go: uses context.Background":           true,
	"internal/experiments/fig11.go: uses context.Background":     true,
	"internal/experiments/scenario.go: uses context.Background":  true,
	"internal/rpc/server.go: uses context.Background":            true,
	"internal/trajstore/batchwriter.go: uses context.Background": true,
	"internal/transport/inproc.go: uses context.Background":      true,
}

// tcpLifecyclePackages may dial, listen and accept: the one server and
// client connection every TCP wire runs on.
var tcpLifecyclePackages = []string{"internal/rpc"}

// tcpLifecycleAllow lists the files that dial, listen or accept outside
// rpc ("<file>: uses net.<name>" or "<file>: calls Accept()"): the
// telemetry HTTP server, whose listener net/http serves.
var tcpLifecycleAllow = map[string]bool{
	"internal/obs/http.go: uses net.Listen": true,
}

// unsetOptionAllow maps each "<file>: <Type>.<Field>" option that no
// non-test caller sets to the one-line reason it stays an option.
var unsetOptionAllow = map[string]string{
	"internal/core/system.go: Config.AlertRules":                          "a simulation setting the coralpie.Config facade (an alias of core.Config) exposes; ParseFleetRule builds its rules",
	"internal/core/system.go: Config.Epoch":                               "a simulation setting the coralpie.Config facade (an alias of core.Config) exposes",
	"internal/core/system.go: Config.LivenessCheckInterval":               "a simulation setting the coralpie.Config facade (an alias of core.Config) exposes",
	"internal/core/system.go: Config.LivenessMultiple":                    "a simulation setting the coralpie.Config facade (an alias of core.Config) exposes",
	"internal/core/system.go: Config.MonitorLivenessMultiple":             "a simulation setting the coralpie.Config facade (an alias of core.Config) exposes",
	"internal/core/system.go: Config.NetworkLatency":                      "a simulation setting the coralpie.Config facade (an alias of core.Config) exposes; the geo-distribution study (ROADMAP item 16) varies it",
	"internal/core/system.go: Config.Pool":                                "a simulation setting the coralpie.Config facade (an alias of core.Config) exposes",
	"internal/core/system.go: Config.PostProcess":                         "a simulation setting the coralpie.Config facade (an alias of core.Config) exposes",
	"internal/experiments/scenario.go: CorridorConfig.Seed":               "set from DefaultCorridorConfig's seed argument, which every experiment passes",
	"internal/roadnet/mdcs.go: MDCSOptions.IncludeSelf":                   "a paper-footnote extension (DESIGN.md §6)",
	"internal/topology/server.go: ServerConfig.MoveThresholdMeters":       "a paper-footnote extension (DESIGN.md §6)",
	"internal/trajstore/batchwriter.go: BatchWriterConfig.MaxBatch":       "the root bench_test.go sets 128 for the batched rows of BENCH_trajstore.json",
	"internal/vision/blobdetector.go: BlobDetectorConfig.Background":      "the pixel detector's background model, which depends on the scene; DefaultBlobDetectorConfig holds the simulator's road",
	"internal/vision/blobdetector.go: BlobDetectorConfig.MaxArea":         "the pixel detector's background model, which depends on the scene; DefaultBlobDetectorConfig holds the simulator's road",
	"internal/vision/blobdetector.go: BlobDetectorConfig.MinArea":         "the pixel detector's background model, which depends on the scene; DefaultBlobDetectorConfig holds the simulator's road",
	"internal/vision/blobdetector.go: BlobDetectorConfig.Threshold":       "the pixel detector's background model, which depends on the scene; DefaultBlobDetectorConfig holds the simulator's road",
	"internal/vision/simdetector.go: SimDetectorConfig.BoxJitterPx":       "the detector noise model, which PAPER.md §2 calls configurable",
	"internal/vision/simdetector.go: SimDetectorConfig.ConfMean":          "the detector noise model, which PAPER.md §2 calls configurable",
	"internal/vision/simdetector.go: SimDetectorConfig.ConfStd":           "the detector noise model, which PAPER.md §2 calls configurable",
	"internal/vision/simdetector.go: SimDetectorConfig.FalseConfMean":     "the detector noise model, which PAPER.md §2 calls configurable",
	"internal/vision/simdetector.go: SimDetectorConfig.FalsePositiveRate": "the detector noise model, which PAPER.md §2 calls configurable",
	"internal/vision/simdetector.go: SimDetectorConfig.MinBoxPx":          "the detector noise model, which PAPER.md §2 calls configurable",
	"internal/vision/simdetector.go: SimDetectorConfig.MissRate":          "the detector noise model, which PAPER.md §2 calls configurable",
	"internal/vision/simdetector.go: SimDetectorConfig.Seed":              "set from DefaultSimDetectorConfig's seed argument, which every detector's caller passes",
}
