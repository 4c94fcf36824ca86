package remote

// Metric base names for the distributed portfolio. Every name that
// reaches an obs sink is declared here as a package-level constant;
// TestMetricCatalogue checks each against the golden catalogue, the
// snake_case contract and README. Per-worker series attach a "worker"
// label via obs.Name.
const (
	// Transport-level frame accounting, shared by both ends of a link.
	metricNetFramesSent = "net_frames_sent_total"
	metricNetFramesRecv = "net_frames_recv_total"
	metricNetBytesSent  = "net_bytes_sent_total"
	metricNetBytesRecv  = "net_bytes_recv_total"

	// Worker-side counters.
	metricWorkerRaces       = "remote_worker_races_total"
	metricWorkerRaceErrors  = "remote_worker_race_errors_total"
	metricWorkerConnections = "remote_worker_connections_total"

	// Coordinator-side counters.
	metricRemoteRaces      = "remote_races_total"
	metricRemoteWins       = "remote_wins_total"
	metricRemoteFallbacks  = "remote_fallback_races_total"
	metricRemoteEvictions  = "remote_worker_evictions_total"
	metricRemoteReconnects = "remote_reconnects_total"
	metricRemoteCancels    = "remote_cancels_total"
)
