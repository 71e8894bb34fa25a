package edaserver

// Each override shrinks one of the server's fixed sizes, so a test
// reaches eviction with a handful of jobs or events.

// WithReportCap returns opts with the report store bounded at n.
func WithReportCap(opts Options, n int) Options { opts.reportCap = n; return opts }

// WithJobCap returns opts with the job table bounded at n.
func WithJobCap(opts Options, n int) Options { opts.jobCap = n; return opts }

// WithEventHistory returns opts with each replay ring bounded at n.
func WithEventHistory(opts Options, n int) Options { opts.eventHistory = n; return opts }
