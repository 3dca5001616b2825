package service

import "repro/internal/gen"

// The JSON bodies of the graph, solve and job endpoints, declared once:
// the handlers encode and decode them and internal/client decodes into
// them, so a renamed field breaks the build on both sides, not a client
// at run time. The version body is VersionInfo (store.Version). The hot
// query endpoints keep hand-built zero-alloc encoders; /v1/stats is a map.

// GenerateRequest is the POST /v1/graphs/generate body: a gen.Spec plus
// the stored graph's name.
type GenerateRequest struct {
	Name string `json:"name"`
	gen.Spec
}

// GraphInfo is a stored graph at its latest version: the answer to
// load, generate and GET /v1/graphs/{id}. Digest is the latest version's
// chained digest, BaseDigest the content digest of the loaded graph.
type GraphInfo struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	Digest     string `json:"digest"`
	BaseDigest string `json:"baseDigest"`
	Version    int    `json:"version"`
	N          int    `json:"n"`
	M          int    `json:"m"`
	Components int    `json:"components"`
}

// AppendResult answers POST /v1/graphs/{id}/edges: the version the batch
// produced, or, with Applied false, the version an earlier delivery of
// the same batch already produced (see AppendExpect).
type AppendResult struct {
	VersionInfo
	Graph   string `json:"graph"`
	Applied bool   `json:"applied"`
}

// VersionList answers GET /v1/graphs/{id}/versions: the retained
// version window, oldest first.
type VersionList struct {
	Graph         string        `json:"graph"`
	Latest        int           `json:"latest"`
	MaxVersionGap int           `json:"maxVersionGap"`
	Versions      []VersionInfo `json:"versions"`
}

// SolveRequest is the POST /v1/solve body. A nil Version solves the
// latest version; an empty Algo selects Config.DefaultAlgo. With Wait
// the answer is the LabelingInfo, without it the submitted JobInfo.
type SolveRequest struct {
	Graph   string  `json:"graph"`
	Version *int    `json:"version,omitempty"`
	Algo    string  `json:"algo,omitempty"`
	Lambda  float64 `json:"lambda,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
	Memory  int     `json:"memory,omitempty"`
	Workers int     `json:"workers,omitempty"`
	Wait    bool    `json:"wait,omitempty"`
}

// spec resolves the request to a SolveSpec: the latest version unless
// one is pinned, defaultAlgo unless an algorithm is named, and the
// algorithm options validated.
func (r *SolveRequest) spec(defaultAlgo string) (SolveSpec, error) {
	spec := SolveSpec{GraphID: r.Graph, Version: -1, Algo: r.Algo,
		Lambda: r.Lambda, Seed: r.Seed, Memory: r.Memory, Workers: r.Workers}
	if r.Version != nil {
		spec.Version = *r.Version
	}
	if spec.Algo == "" {
		spec.Algo = defaultAlgo
	}
	return spec, validateAlgoOptions(r.Lambda, r.Memory)
}

// LabelingInfo summarizes one solved configuration of one version.
type LabelingInfo struct {
	Graph      string  `json:"graph"`
	Version    int     `json:"version"`
	Algo       string  `json:"algo"`
	Seed       uint64  `json:"seed"`
	Lambda     float64 `json:"lambda"`
	Memory     int     `json:"memory"`
	Components int     `json:"components"`
	Rounds     int     `json:"rounds"`
	PeakEdges  int     `json:"peakEdges"`
	Cached     bool    `json:"cached"`
	Forwarded  bool    `json:"forwarded"`
}

// JobInfo is a solve job's state; Result is set once it is done.
type JobInfo struct {
	ID     string        `json:"id"`
	Status JobStatus     `json:"status"`
	Error  string        `json:"error,omitempty"`
	Result *LabelingInfo `json:"result,omitempty"`
}

// graphInfo renders a stored graph with its latest version. ok=false
// means the graph was evicted between lookup and now (MaxGraphs
// pressure) — the handle has no version data left, and the caller must
// 404 rather than serve a zero digest with a 200.
func graphInfo(sg *StoredGraph) (GraphInfo, bool) {
	latest := sg.Latest()
	if latest.Digest == "" {
		return GraphInfo{}, false
	}
	return GraphInfo{
		ID: sg.ID, Name: sg.Name, Digest: latest.Digest, BaseDigest: sg.Digest,
		Version: latest.Version, N: latest.N, M: latest.M, Components: latest.Components,
	}, true
}

func labelingInfo(l *Labeling, cached bool) *LabelingInfo {
	return &LabelingInfo{
		Graph: l.GraphID, Version: l.Version, Algo: l.Algo, Seed: l.Seed, Lambda: l.Lambda,
		Memory: l.Memory, Components: l.Components, Rounds: l.Rounds,
		PeakEdges: l.PeakEdges, Cached: cached, Forwarded: l.Forwarded,
	}
}

func jobInfo(snap JobSnapshot) JobInfo {
	out := JobInfo{ID: snap.ID, Status: snap.Status, Error: snap.Err}
	if snap.Result != nil {
		out.Result = labelingInfo(snap.Result, snap.Cached)
	}
	return out
}
