"""Host-time benchmark of the cluster simulator (see README.md)."""
