"""Suite-wide settings.

The test process's address space is capped at ``ADDRESS_SPACE_CAP`` where
the platform has ``resource``, so that a runaway test fails with
MemoryError instead of the kernel's out-of-memory killer ending the whole
run.  The suite peaks near 300 MiB resident, far below the cap.  A lower
limit already in force is kept.
"""

from __future__ import annotations

try:
    import resource
except ImportError:  # not on Windows
    resource = None

ADDRESS_SPACE_CAP = 3 << 30  # bytes

if resource is not None:
    _soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
    _cap = ADDRESS_SPACE_CAP if _hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, _hard)
    if _soft == resource.RLIM_INFINITY or _soft > _cap:
        resource.setrlimit(resource.RLIMIT_AS, (_cap, _hard))
