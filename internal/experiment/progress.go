package experiment

// Progress is one campaign progress observation: how many trials are
// done out of how many the run will execute, and (optionally) the group
// of the trial that just completed. It is the "fleet" payload of the
// dashboard's snapshots (telemetry.Snapshot):
//
//	{"done":12,"total":40,"group":"SR 16x16","group_done":3}
type Progress struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Group string `json:"group,omitempty"`
	// GroupDone, when positive, is the completed-trial count within
	// Group — the fuel for per-group completion heatmaps.
	GroupDone int `json:"group_done,omitempty"`
}
