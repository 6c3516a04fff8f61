"""Host physical memory and frame allocation.

Memory is modelled at page granularity (4 KiB).  Frames hold real byte
content so that data genuinely flows through shared-memory pages during
cross-world calls — tests verify end-to-end payload integrity, not just
transition counts.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import SimulationError

#: Page size of the modelled machine.
PAGE_SIZE = 4096

#: Mask extracting the in-page offset.
PAGE_MASK = PAGE_SIZE - 1


def page_number(addr: int) -> int:
    """Page frame number containing ``addr``."""
    return addr >> 12


def page_offset(addr: int) -> int:
    """Offset of ``addr`` within its page."""
    return addr & PAGE_MASK


def page_base(addr: int) -> int:
    """Base address of the page containing ``addr``."""
    return addr & ~PAGE_MASK


def is_page_aligned(addr: int) -> bool:
    """True if ``addr`` is a page boundary."""
    return (addr & PAGE_MASK) == 0


#: Global mapping-generation counter.  Every guest page-table or EPT
#: mutation bumps it, so software translation caches (the CPU's host
#: TLB model is separate) can validate entries with one comparison
#: instead of re-walking.  The page-table and EPT mutators increment it
#: in place (``mem._mapping_epoch += 1``): they run once per mapping,
#: tens of thousands of times per sweep.
_mapping_epoch = 0


def mapping_epoch() -> int:
    """The current global mapping generation."""
    return _mapping_epoch


def bump_mapping_epoch() -> None:
    """Invalidate every cached translation machine-wide."""
    global _mapping_epoch
    _mapping_epoch += 1


class Frame:
    """One host physical page frame with byte content.

    The backing bytearray is allocated on first touch: most frames
    (process stacks, text pages) are mapped but never read or written,
    and benchmark sweeps allocate tens of thousands of them.
    """

    __slots__ = ("hpa", "_data", "label")

    def __init__(self, hpa: int, label: str = "") -> None:
        self.hpa = hpa
        self._data = None
        self.label = label

    @property
    def data(self) -> bytearray:
        """The frame's content (zero-filled until first written)."""
        if self._data is None:
            self._data = bytearray(PAGE_SIZE)
        return self._data

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset`` within the frame."""
        if offset < 0 or offset + length > PAGE_SIZE:
            raise SimulationError(
                f"frame read out of bounds: offset={offset} length={length}")
        if self._data is None:
            return bytes(length)
        return bytes(self._data[offset:offset + length])

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` starting at ``offset`` within the frame."""
        if offset < 0 or offset + len(data) > PAGE_SIZE:
            raise SimulationError(
                f"frame write out of bounds: offset={offset} length={len(data)}")
        buf = self._data
        if buf is None:
            buf = self._data = bytearray(PAGE_SIZE)
        buf[offset:offset + len(data)] = data


class HostMemory:
    """The machine's physical memory: a sparse map of allocated frames."""

    def __init__(self, size_bytes: int = 32 << 30) -> None:
        if size_bytes <= 0 or size_bytes & PAGE_MASK:
            raise SimulationError("memory size must be a positive page multiple")
        self.size_bytes = size_bytes
        self._frames: Dict[int, Frame] = {}
        self._next_free_pfn = 1  # keep HPA 0 unmapped to catch null derefs

    @property
    def allocated_frames(self) -> int:
        """Number of frames currently allocated."""
        return len(self._frames)

    def allocate(self, label: str = "") -> Frame:
        """Allocate a fresh zeroed frame and return it."""
        pfn = self._next_free_pfn
        if (pfn << 12) >= self.size_bytes:
            raise SimulationError("host physical memory exhausted")
        self._next_free_pfn += 1
        frame = Frame(pfn << 12, label)
        self._frames[pfn] = frame
        return frame

    def allocate_many(self, count: int, label: str = "") -> list:
        """Allocate ``count`` frames (not necessarily contiguous)."""
        return [self.allocate(label) for _ in range(count)]

    def free(self, hpa: int) -> None:
        """Release the frame at host physical address ``hpa``."""
        pfn = page_number(hpa)
        if pfn not in self._frames:
            raise SimulationError(f"double free / unknown frame at {hpa:#x}")
        del self._frames[pfn]

    def frame_at(self, hpa: int) -> Frame:
        """The frame containing host physical address ``hpa``."""
        frame = self._frames.get(page_number(hpa))
        if frame is None:
            raise SimulationError(f"access to unmapped host memory at {hpa:#x}")
        return frame

    def frame_if_present(self, hpa: int) -> Optional[Frame]:
        """Like :meth:`frame_at` but returns ``None`` when unmapped."""
        return self._frames.get(page_number(hpa))

    def read(self, hpa: int, length: int) -> bytes:
        """Read bytes from physical memory (may span frames)."""
        offset = hpa & PAGE_MASK
        if length and offset + length <= PAGE_SIZE:
            frame = self._frames.get(hpa >> 12)
            if frame is None:
                raise SimulationError(
                    f"access to unmapped host memory at {hpa:#x}")
            return frame.read(offset, length)
        out = bytearray()
        addr = hpa
        remaining = length
        while remaining > 0:
            frame = self.frame_at(addr)
            offset = page_offset(addr)
            chunk = min(remaining, PAGE_SIZE - offset)
            out += frame.read(offset, chunk)
            addr += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, hpa: int, data: bytes) -> None:
        """Write bytes to physical memory (may span frames)."""
        offset = hpa & PAGE_MASK
        if data and offset + len(data) <= PAGE_SIZE:
            frame = self._frames.get(hpa >> 12)
            if frame is None:
                raise SimulationError(
                    f"access to unmapped host memory at {hpa:#x}")
            frame.write(offset, data)
            return
        addr = hpa
        view = memoryview(data)
        while view:
            frame = self.frame_at(addr)
            offset = page_offset(addr)
            chunk = min(len(view), PAGE_SIZE - offset)
            frame.write(offset, bytes(view[:chunk]))
            addr += chunk
            view = view[chunk:]
