"""fsck tests: clean images pass, injected corruption is detected."""

import pytest

from repro.ext4.extents import FileExtent
from repro.ext4.filesystem import Ext4DaxFS
from repro.ext4.fsck import assert_clean, fsck
from repro.kernel.machine import Machine
from repro.posix import flags as F

PM = 96 * 1024 * 1024


@pytest.fixture
def fs():
    return Ext4DaxFS.format(Machine(PM))


def busy(fs):
    fs.mkdir("/d")
    for i in range(12):
        fs.write_file(f"/d/f{i}", bytes([i]) * (1000 * (i + 1)))
    fs.rename("/d/f3", "/d/g3")
    fs.unlink("/d/f5")
    fd = fs.open("/d/f1", F.O_RDWR)
    fs.ftruncate(fd, 100)
    fs.fsync(fd)


class TestCleanImages:
    def test_fresh_format_is_clean(self, fs):
        assert fsck(fs).clean

    def test_busy_fs_is_clean(self, fs):
        busy(fs)
        report = assert_clean(fs)
        assert report.inodes_checked > 10
        assert report.blocks_claimed > 0

    def test_clean_after_crash_recovery(self, fs):
        busy(fs)
        fs.machine.crash()
        fs2 = Ext4DaxFS.mount(fs.machine)
        assert_clean(fs2)

    def test_clean_after_relink(self, fs):
        src = fs.open("/src", F.O_CREAT | F.O_RDWR)
        dst = fs.open("/dst", F.O_CREAT | F.O_RDWR)
        fs.write(src, b"s" * 20_000)
        fs.ioctl_relink(src, 0, dst, 0, 20_000)
        assert_clean(fs)

    def test_clean_with_splitfs_on_top(self):
        from repro.core import Mode, SplitFS

        m = Machine(PM)
        kfs = Ext4DaxFS.format(m)
        sfs = SplitFS(kfs, mode=Mode.STRICT)
        fd = sfs.open("/x", F.O_CREAT | F.O_RDWR)
        for i in range(30):
            sfs.write(fd, bytes([i]) * 3000)
        sfs.fsync(fd)
        sfs.pwrite(fd, b"o" * 500, 100)
        sfs.fsync(fd)
        assert_clean(kfs)


class TestCorruptionDetection:
    def test_double_claimed_block(self, fs):
        fs.write_file("/a", b"1" * 5000)
        fs.write_file("/b", b"2" * 5000)
        ia = fs.inodes[fs._resolve("/a")]
        ib = fs.inodes[fs._resolve("/b")]
        # Point b's first extent at a's blocks.
        stolen = ia.extmap.extents[0]
        victim = ib.extmap.punch(0, 1)
        ib.extmap.insert(0, stolen.phys, 1)
        report = fsck(fs)
        assert any("claimed by both" in e for e in report.errors)

    def test_dangling_dirent(self, fs):
        fs.write_file("/gone", b"x")
        ino = fs._resolve("/gone")
        fs.inodes.pop(ino)  # corrupt: remove inode, keep dirent
        report = fsck(fs)
        assert any("dead ino" in e for e in report.errors)

    def test_extent_outside_data_region(self, fs):
        fs.write_file("/oob", b"y" * 4096)
        inode = fs.inodes[fs._resolve("/oob")]
        inode.extmap.punch(0, 1)
        inode.extmap.insert(0, 1, 1)  # block 1 = journal region
        report = fsck(fs)
        assert any("outside data region" in e for e in report.errors)

    def test_unreachable_inode(self, fs):
        fs.write_file("/orphaned", b"z")
        ino = fs._resolve("/orphaned")
        fs.dirs[1].remove("orphaned")  # drop the dirent but keep the inode
        report = fsck(fs)
        assert any("unreachable" in e for e in report.errors)

    def test_assert_clean_raises_with_details(self, fs):
        fs.write_file("/bad", b"x")
        fs.inodes.pop(fs._resolve("/bad"))
        with pytest.raises(AssertionError, match="dead ino"):
            assert_clean(fs)

    def test_accounting_mismatch_detected(self, fs):
        fs.write_file("/acct", b"q" * 8192)
        inode = fs.inodes[fs._resolve("/acct")]
        # Leak a block: punch the mapping without freeing it.
        inode.extmap.punch(0, 1)
        report = fsck(fs)
        assert any("accounting mismatch" in e for e in report.errors)


class TestExtentClaims:
    """Whole-extent claims must report exactly what per-block claims do."""

    def _remap(self, fs, path, phys, length):
        inode = fs.inodes[fs._resolve(path)]
        inode.extmap.punch(0, 1 << 20)
        inode.extmap.insert(0, phys, length)
        return fs._resolve(path)

    def test_partial_overlap_names_each_shared_block(self, fs):
        fs.write_file("/a", b"1" * (4 * 4096))
        fs.write_file("/b", b"2" * (4 * 4096))
        ia = fs._resolve("/a")
        a_start = fs.inodes[ia].extmap.extents[0].phys
        # b's 4 blocks now cover a's last two plus two blocks past it.
        before = fsck(fs).blocks_claimed
        ib = self._remap(fs, "/b", a_start + 2, 4)
        report = fsck(fs)
        shared = [e for e in report.errors if "claimed by both" in e]
        assert shared == [
            f"block {a_start + 2} claimed by both ino {ia} and ino {ib} (data)",
            f"block {a_start + 3} claimed by both ino {ia} and ino {ib} (data)",
        ]
        assert report.blocks_claimed == before

    def test_extent_straddling_the_data_region_start(self, fs):
        fs.write_file("/s", b"s" * (3 * 4096))
        before = fsck(fs).blocks_claimed
        ino = self._remap(fs, "/s", fs.data_start - 1, 3)
        report = fsck(fs)
        outside = [e for e in report.errors if "outside data region" in e]
        assert outside == [
            f"ino {ino}: data block {fs.data_start - 1} outside data region"]
        assert report.blocks_claimed == before - 1

    def test_extent_running_off_the_device(self, fs):
        fs.write_file("/e", b"e" * (2 * 4096))
        ino = self._remap(fs, "/e", fs.total_blocks - 1, 2)
        report = fsck(fs)
        assert [e for e in report.errors if "outside data region" in e] == [
            f"ino {ino}: data block {fs.total_blocks} outside data region"]

    def test_self_overlap_is_not_an_error_but_counts_twice(self, fs):
        fs.write_file("/t", b"t" * (2 * 4096))
        inode = fs.inodes[fs._resolve("/t")]
        phys = inode.extmap.extents[0].phys
        before = fsck(fs).blocks_claimed
        inode.extmap.insert(5, phys, 2)  # the same two blocks, mapped again
        report = fsck(fs)
        assert not any("claimed by both" in e for e in report.errors)
        assert report.blocks_claimed == before + 2
