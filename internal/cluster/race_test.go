//go:build race

package cluster

func init() { raceBuild = true }
