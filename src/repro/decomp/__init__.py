"""Domain decomposition: row-to-processor assignment, interior/interface
classification and halo-exchange plans."""

from .decomposition import DomainDecomposition, decompose, decomposition_for

__all__ = ["DomainDecomposition", "decompose", "decomposition_for"]
