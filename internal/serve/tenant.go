package serve

import "context"

// DefaultTenant is the identity of queries whose context carries no tenant.
// A session serving only default-tenant traffic behaves exactly like the
// pre-tenant global FIFO: one queue, strict arrival order.
const DefaultTenant = "default"

type tenantCtxKey struct{}

// WithTenant returns a context carrying the tenant identity for Query calls
// below it. Admission queues and fair-share deficits key on this identity;
// an empty id means DefaultTenant.
func WithTenant(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantCtxKey{}, id)
}

// TenantFrom extracts the tenant identity from a context, defaulting to
// DefaultTenant.
func TenantFrom(ctx context.Context) string {
	if ctx != nil {
		if id, ok := ctx.Value(tenantCtxKey{}).(string); ok && id != "" {
			return id
		}
	}
	return DefaultTenant
}
