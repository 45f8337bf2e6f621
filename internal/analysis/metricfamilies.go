package analysis

// metricFamily describes one allowed metric family: its instrument kind
// and the exact label-key schema every registration must use.
type metricFamily struct {
	kind   string   // "counter", "gauge", or "histogram"
	labels []string // exact label-key set; empty = unlabeled family
}

// metricFamilies is the checked-in allowlist the metricname analyzer
// enforces. Adding a metric means adding a row here first — that is the
// point: the family name, kind suffix, and label schema get reviewed in
// the same diff that introduces the series, and stray "repro_…" literals
// anywhere in the tree must resolve to a row in this table.
var metricFamilies = map[string]metricFamily{
	// node core
	"repro_node_ticks_total":         {kind: "counter"},
	"repro_node_receipt_steps_total": {kind: "counter"},
	"repro_node_tick_late_seconds":   {kind: "histogram"},

	// failure detector (internal/fd, fed by core.Node.PeerDown)
	"repro_fd_peer_down_total": {kind: "counter"},

	// datalink (internal/datalink)
	"repro_datalink_cleanings_total":      {kind: "counter"},
	"repro_datalink_cycles_total":         {kind: "counter"},
	"repro_datalink_delivered_total":      {kind: "counter"},
	"repro_datalink_stale_ignored_total":  {kind: "counter"},
	"repro_datalink_timeouts_total":       {kind: "counter"},
	"repro_datalink_batches_total":        {kind: "counter"},
	"repro_datalink_batch_payloads_total": {kind: "counter"},
	"repro_datalink_evictions_total":      {kind: "counter"},
	"repro_datalink_kicked_cycles_total":  {kind: "counter"},
	"repro_datalink_queue_depth":          {kind: "gauge"},
	"repro_datalink_inflight_window":      {kind: "gauge"},
	"repro_datalink_ack_rtt_ticks":        {kind: "histogram"},

	// tcp transport (internal/transport/tcp)
	"repro_tcp_sent_total":           {kind: "counter"},
	"repro_tcp_delivered_total":      {kind: "counter"},
	"repro_tcp_dropped_total":        {kind: "counter"},
	"repro_tcp_duplicated_total":     {kind: "counter"},
	"repro_tcp_redials_total":        {kind: "counter"},
	"repro_tcp_decode_errors_total":  {kind: "counter"},
	"repro_tcp_conn_writes_total":    {kind: "counter"},
	"repro_tcp_frames_written_total": {kind: "counter"},
	"repro_tcp_write_coalescing":     {kind: "gauge"},

	// per-shard vs/smr (cmd/noded registerShards)
	"repro_vs_rounds_applied_total":       {kind: "counter", labels: []string{"shard"}},
	"repro_vs_views_installed_total":      {kind: "counter", labels: []string{"shard"}},
	"repro_vs_proposals_total":            {kind: "counter", labels: []string{"shard"}},
	"repro_vs_suspended_ticks_total":      {kind: "counter", labels: []string{"shard"}},
	"repro_vs_reconfig_requests_total":    {kind: "counter", labels: []string{"shard"}},
	"repro_vs_state_adoptions_total":      {kind: "counter", labels: []string{"shard"}},
	"repro_vs_state_mismatches_total":     {kind: "counter", labels: []string{"shard"}},
	"repro_vs_no_coordinator_ticks_total": {kind: "counter", labels: []string{"shard"}},
	"repro_vs_echo_rounds_total":          {kind: "counter", labels: []string{"shard"}},
	"repro_smr_pending_commands":          {kind: "gauge", labels: []string{"shard"}},
	"repro_shard_ops_total":               {kind: "counter", labels: []string{"shard", "op"}},

	// joining mechanism (cmd/noded registerJoin; Algorithm 3.3 progress
	// under churn)
	"repro_join_requests_total":  {kind: "counter"},
	"repro_join_responses_total": {kind: "counter"},
	"repro_join_joined_total":    {kind: "counter"},
	"repro_join_denied_total":    {kind: "counter"},
	"repro_join_participant":     {kind: "gauge"},

	// durable storage (internal/shard/storage)
	"repro_storage_appends_total":         {kind: "counter", labels: []string{"shard"}},
	"repro_storage_snapshots_total":       {kind: "counter", labels: []string{"shard"}},
	"repro_storage_snapshot_errors_total": {kind: "counter", labels: []string{"shard"}},
	"repro_storage_wal_records":           {kind: "gauge", labels: []string{"shard"}},
	"repro_storage_wal_bytes":             {kind: "gauge", labels: []string{"shard"}},
	"repro_storage_snapshot_bytes":        {kind: "gauge", labels: []string{"shard"}},
	"repro_storage_failed":                {kind: "gauge", labels: []string{"shard"}},
	"repro_storage_snapshot_seconds":      {kind: "histogram", labels: []string{"shard"}},

	// HTTP admin surface (cmd/noded)
	"repro_http_requests_total":  {kind: "counter", labels: []string{"route", "code"}},
	"repro_http_request_seconds": {kind: "histogram", labels: []string{"route"}},

	// build identity (PR 9)
	"repro_build_info": {kind: "gauge", labels: []string{"go_version", "vcs_rev"}},
}
